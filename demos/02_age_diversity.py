"""Show the five age-shape templates and their diversity profiles.

Every shape keeps all nine decade groups occupied (richness 9), but the
effective number of groups drops with q as the index weights evenness
more heavily — the uniform shape stays at 9, skewed shapes fall fastest.
"""

import argparse

import numpy as np

from prefnet import AgeShape, Scenario, group_counts, hill_profile, make_population


def main():
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--nodes", type=int, default=90, help="population size")
    cli.add_argument("--seed", type=int, default=0, help="master seed")
    args = cli.parse_args()

    print(f"group counts for {args.nodes} nodes (decades 0-9 ... 80-89):")
    for shape in AgeShape:
        counts = group_counts(shape, args.nodes)
        print(f"  {shape.value:>12}: {' '.join(f'{c:>3}' for c in counts)}")

    orders = np.arange(10.0)
    print()
    print("effective number of groups by order q:")
    print(f"  {'shape':>12}  " + " ".join(f"q={int(q)}" for q in orders))
    for shape in AgeShape:
        profile = hill_profile(group_counts(shape, args.nodes), orders)
        print(f"  {shape.value:>12}  " + " ".join(f"{v:3.1f}" for v in profile))

    bell = Scenario(node_count=args.nodes, edge_budget=0, age_shape=AgeShape.BELL,
                    master_seed=args.seed)
    ages = make_population(bell).ages
    print()
    print(f"sampled Bell ages (seed {args.seed}): "
          f"min {ages.min()}, median {int(np.median(ages))}, max {ages.max()}")


if __name__ == "__main__":
    main()
