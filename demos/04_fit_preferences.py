"""Fit connection preferences to a scale-free degree pattern.

A coarse grid pass followed by local refinement searches the preference
space (level sign and weight, difference sign and weight) for the blend
whose generated networks best match a scale-free target. The budget here
is kept small so the demo runs in seconds; raise it for a tighter fit.
"""

import argparse

from prefnet import (
    RULE_PREFERENCES,
    RngPolicy,
    Scenario,
    ba_target,
    degree_distribution,
    evaluate,
    optimize,
    replicate_draws,
)


def main():
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--budget", type=int, default=120, help="objective evaluations")
    cli.add_argument("--replicates", type=int, default=3,
                     help="networks averaged per evaluation")
    cli.add_argument("--seed", type=int, default=0, help="master seed")
    args = cli.parse_args()

    sc = Scenario(master_seed=args.seed)
    target = degree_distribution(
        ba_target(sc.node_count, 20, RngPolicy(sc.master_seed).stream("optimizer", 0))
    )

    draws = replicate_draws(sc, args.replicates, target)
    result = optimize(draws, budget=args.budget)
    best = result.best
    scores = sum(len(r.js) for r in result.log)
    print(f"budget {args.budget} x {args.replicates} replicates "
          f"-> {len(result.log)} evaluations, {scores} logged replicate scores")
    print(f"best preference: level {best.level:+d} w={best.level_weight:.3f}, "
          f"difference {best.difference:+d} w={best.difference_weight:.3f}")
    print(f"mean divergence {result.objective:.4f} "
          f"(std {result.objective_std:.4f} over {len(result.log[0].js)} replicates)")

    print()
    print("pure rules on the same target, same replicate draws:")
    for rule, pref in RULE_PREFERENCES.items():
        mean, _ = evaluate(pref, draws)
        marker = "  <- beaten" if result.objective < mean else ""
        print(f"  {rule.value:>3}: {mean:.4f}{marker}")


if __name__ == "__main__":
    main()
