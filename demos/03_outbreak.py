"""Seed and run an SI outbreak, then read off who is at risk.

The seed is the highest-degree node. Infection spreads synchronously for
six steps; the tables below slice the outcome by time, by distance from
the seed, and by age group.
"""

import argparse

import numpy as np

from prefnet import (
    RngPolicy,
    Scenario,
    generate_network,
    infection_by_distance,
    make_population,
    pair_draws,
    par_by_group,
    par_matrix,
    run_si,
)


def main():
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--tau", type=float, default=0.8, help="transmissibility")
    cli.add_argument("--seed", type=int, default=0, help="master seed")
    cli.add_argument("--replicate", type=int, default=0, help="infection replicate")
    args = cli.parse_args()

    sc = Scenario(transmissibility=args.tau, master_seed=args.seed)
    population = make_population(sc)
    net = generate_network(population, sc, pair_draws(sc))
    stream = RngPolicy(sc.master_seed).counter_stream("infection", args.replicate)
    [trace] = run_si(net, sc, stream)

    seed = int(trace.seeds[0])
    print(f"tau={args.tau}, master seed {args.seed}, replicate {args.replicate}")
    print(f"seed node {seed}: age {population.ages[seed]}, "
          f"degree {net.degrees[seed]} (network max {net.degrees.max()})")

    counts = [trace.infected_count(t) for t in range(sc.horizon + 1)]
    print()
    print("infected over time: " + " -> ".join(str(c) for c in counts)
          + f"  (of {sc.node_count})")

    table = infection_by_distance(trace)
    print()
    print("infected nodes at each distance from the seed, by step (cumulative in time):")
    print("  t\\d " + " ".join(f"{d:>4}" for d in range(sc.distance_cap + 1)))
    for t in range(sc.horizon + 1):
        print(f"  {t:>3} " + " ".join(f"{c:>4}" for c in table[t]))

    print()
    print("population share infected within time T and distance D:")
    print("  T\\D " + " ".join(f"{d:>5}" for d in range(sc.distance_cap + 1)))
    matrix = par_matrix(trace)
    for t in range(sc.horizon + 1):
        row = [f"{matrix[t, d]:>5.2f}" for d in range(min(t, sc.distance_cap) + 1)]
        print(f"  {t:>3} " + " ".join(row))

    shares = par_by_group(trace, population, sc.horizon, sc.distance_cap)
    print()
    print("final share infected per decade group:")
    for g, share in enumerate(shares):
        label = f"{10 * g}-{10 * g + 9}"
        bar = "#" * int(round(20 * share)) if np.isfinite(share) else ""
        value = f"{share:.2f}" if np.isfinite(share) else " n/a"
        print(f"  {label:>6}: {value} {bar}")


if __name__ == "__main__":
    main()
