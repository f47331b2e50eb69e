"""Grow one network per connection rule and compare their texture.

Each rule is run on the same uniformly aged population, then summarised
next to the scale-free target: edge counts, isolated nodes, clustering,
path lengths, and the divergence of the degree pattern from the target.
"""

import argparse

from prefnet import (
    RngPolicy,
    Rule,
    Scenario,
    analyze,
    ba_target,
    degree_distribution,
    generate_network,
    js_divergence,
    make_population,
    pair_draws,
)


def build(scenario):
    # the rule changes the preference the scenario grows with, not the ages
    return generate_network(make_population(scenario), scenario, pair_draws(scenario))


def main():
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--seed", type=int, default=0, help="master seed")
    args = cli.parse_args()

    base = Scenario(master_seed=args.seed)
    target_net = ba_target(90, 20, RngPolicy(args.seed).stream("optimizer", 0))
    target = degree_distribution(target_net)

    print(f"master seed {args.seed}; target: scale-free, "
          f"{target_net.edge_count} edges, degree std {target_net.degrees.std():.2f}")
    header = f"{'rule':>5} {'edges':>6} {'isolated':>9} {'clustering':>11} " \
             f"{'path avg':>9} {'degree JS':>10}"
    print(header)
    print("-" * len(header))
    for rule in Rule:
        net = build(base.with_overrides(rule=rule))
        patterns = analyze(net)
        stats = patterns.summary
        js = js_divergence(patterns.degree, target)
        print(f"{rule.value:>5} {stats.edge_count:>6} {stats.unconnected_count:>9} "
              f"{stats.clustering_avg:>11.3f} {stats.path_avg:>9.2f} {js:>10.3f}")

    print()
    print("Similar-seeking (H-) closes triangles; dissimilar-seeking (H+) avoids")
    print("them. Level-seeking rules (P+/P-) concentrate edges on one end of the")
    print("age range and leave isolated nodes. The fitted blend (PH) keeps every")
    print("node connected while staying close to the scale-free degree pattern.")


if __name__ == "__main__":
    main()
