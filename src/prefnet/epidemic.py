"""Susceptible-infected spreading over a generated network.

Infection advances in synchronous steps. A susceptible node with E
infected neighbours is infected in the next step with probability
1 - (1 - p1)^E, where p1, the per-exposure probability, is the
transmissibility, the same for every node. Spread is ruled by two
budgets: a time horizon and a distance cap, measured in hops from the
nearest seed; nodes beyond the cap never convert.

Randomness is counter-addressed: the uniform that decides node v at step t
depends only on the stream key and (t, v), so traces are reproducible no
matter how many draws other steps consumed, and replicates can be compared
under common random numbers. Since the draws do not depend on the
transmissibility either, `run_si` steps a ladder of transmissibilities
(those of a sweep cell, say) as the rows of one run: the rows share the
seeds, the seed distances and each step's uniforms, and each row equals
its own single run.

Outcomes are reported as the population-at-risk share PaR(T, D): the
fraction of nodes infected within T steps at seed distance at most D
(D <= T, since reaching distance d takes at least d steps). Every PaR
figure is read from one count table, `infection_by_distance`, built by a
single pass over the trace: PaR(T, D) is row T summed up to column D,
over the node count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .features import GROUP_COUNT, GROUP_WIDTH, Population
from .netgen import NetworkSnapshot
from .scenario import CounterStream, Scenario


def select_seeds(net: NetworkSnapshot, count: int) -> np.ndarray:
    """Ids of the `count` highest-degree nodes, ties to the lower id, in
    ascending order."""
    if not 0 <= count <= net.node_count:
        raise ValueError(f"seed count must lie in [0, {net.node_count}], got {count}")
    order = np.lexsort((np.arange(net.node_count), -net.degrees))
    return np.sort(order[:count]).astype(np.int64)


def multi_source_distances(net: NetworkSnapshot, sources: np.ndarray) -> np.ndarray:
    """Hop distance from the nearest source; unreachable nodes (and every
    node when there are no sources) get the sentinel value node_count.
    Breadth-first, one level at a time over the CSR neighbour lists."""
    n = net.node_count
    dist = np.full(n, n, dtype=np.int64)
    frontier = np.zeros(n, dtype=bool)
    frontier[np.asarray(sources, dtype=np.int64)] = True
    dist[frontier] = 0
    nbr, deg = net.neighbours, net.degrees
    d = 0
    while frontier.any():
        d += 1
        reached = nbr[np.repeat(frontier, deg)]
        frontier = np.zeros(n, dtype=bool)
        frontier[reached] = True
        frontier &= dist == n
        dist[frontier] = d
    return dist


@dataclass
class EpidemicTrace:
    """Step-by-step infection record.

    status[t, v] says whether v is infected at step t (row 0 holds the
    seeds); rows are cumulative since recovery does not occur. distances
    holds hops from the nearest seed (sentinel node_count if unreachable).
    """

    status: np.ndarray
    distances: np.ndarray
    distance_cap: int

    def __post_init__(self) -> None:
        self.status = np.asarray(self.status, dtype=bool)
        self.distances = np.asarray(self.distances, dtype=np.int64)
        if self.status.ndim != 2 or self.status.shape[0] < 1:
            raise ValueError("status must be 2-D with at least one row (the seeds)")
        if self.status.shape[1] != self.distances.shape[0]:
            raise ValueError("status and distances disagree on node count")

    @property
    def seeds(self) -> np.ndarray:
        """Ids of the nodes infected at step 0, ascending."""
        return np.flatnonzero(self.status[0])

    @property
    def horizon(self) -> int:
        """The last step the trace holds."""
        return int(self.status.shape[0]) - 1

    @property
    def node_count(self) -> int:
        return int(self.status.shape[1])

    def infection_times(self) -> np.ndarray:
        """First step at which each node is infected, -1 if never."""
        ever = self.status.any(axis=0)
        first = self.status.argmax(axis=0)
        return np.where(ever, first, -1).astype(np.int64)

    def infected_count(self, t: int) -> int:
        return int(self.status[t].sum())


def run_si(
    net: NetworkSnapshot,
    scenario: Scenario,
    stream: CounterStream,
    taus: Sequence[float] | None = None,
) -> list[EpidemicTrace]:
    """Run the synchronous SI process for scenario.horizon steps, once per
    transmissibility in `taus` (default: the scenario's alone), and return
    one trace per entry.

    At each step t, every susceptible node v with E > 0 infected
    neighbours and seed distance within the cap converts when its uniform
    draw (addressed by (t, v) in the infection stream) falls below
    1 - (1 - p1)^E, where p1 is the row's transmissibility. The seeds are
    the scenario's seed_count highest-degree nodes, ties to the lower id.

    The rows are stepped together as one run that shares the seeds, the
    seed distances, the neighbour list and each step's uniforms; each row
    counts its E with its own bincount over that list and equals its own
    one-row run.
    """
    n = net.node_count
    if scenario.node_count != n:
        raise ValueError("network and scenario disagree on node count")
    taus = [scenario.transmissibility] if taus is None else list(taus)
    if not taus:
        raise ValueError("taus: need at least one transmissibility")
    for tau in taus:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"transmissibility must lie in [0, 1], got {tau!r}")

    seeds = select_seeds(net, scenario.seed_count)
    distances = multi_source_distances(net, seeds)
    nbr, deg = net.neighbours, net.degrees
    reachable = distances <= scenario.distance_cap
    p1 = np.array(taus, dtype=np.float64)[:, None]

    status = np.zeros((len(taus), scenario.horizon + 1, n), dtype=bool)
    status[:, 0, seeds] = True
    for t in range(1, scenario.horizon + 1):
        prev = status[:, t - 1]
        exposures = np.stack([np.bincount(nbr[np.repeat(p, deg)], minlength=n) for p in prev])
        prob = 1.0 - (1.0 - p1) ** exposures
        eligible = (~prev) & (exposures > 0) & reachable
        draws = stream.uniforms(t, n)
        status[:, t] = prev | (eligible & (draws < prob))
    return [
        EpidemicTrace(status=row_status, distances=distances, distance_cap=scenario.distance_cap)
        for row_status in status
    ]


def infection_by_distance(trace: EpidemicTrace) -> np.ndarray:
    """Counts of infected nodes by step and seed distance: entry [t, d] is
    the number of nodes at distance d infected by step t (cumulative in t,
    exact in d). One bincount over the (t, distance) codes of the infected
    entries of the trace; distances beyond the cap share one code, which
    is dropped."""
    cols = trace.distance_cap + 2
    t, v = np.nonzero(trace.status)
    codes = t * cols + np.minimum(trace.distances, cols - 1)[v]
    counts = np.bincount(codes, minlength=(trace.horizon + 1) * cols)
    return counts.reshape(trace.horizon + 1, cols)[:, :-1]


def _check_window(trace: EpidemicTrace, time: int, distance: int) -> None:
    if not 0 <= time <= trace.horizon:
        raise ValueError(f"time {time} outside [0, horizon={trace.horizon}]")
    if not 0 <= distance <= trace.distance_cap:
        raise ValueError(
            f"distance {distance} outside [0, distance_cap={trace.distance_cap}]"
        )
    if distance > time:
        raise ValueError(
            f"distance {distance} exceeds time {time}; reaching distance d "
            f"takes at least d steps"
        )


def _par_from_counts(table: np.ndarray, node_count: int) -> np.ndarray:
    """The PaR matrix of an infection-by-distance table: counts summed
    over distances up to d, over node_count; NaN where d > t."""
    out = np.cumsum(table, axis=1) / node_count
    t, d = np.indices(out.shape)
    out[d > t] = np.nan
    return out


def par_matrix(trace: EpidemicTrace) -> np.ndarray:
    """PaR(T, D) at [T, D] for every window: the fraction of all nodes
    infected within T steps at seed distance at most D; NaN where D > T."""
    return _par_from_counts(infection_by_distance(trace), trace.node_count)


def par_by_group(
    trace: EpidemicTrace, population: Population, time: int, distance: int
) -> np.ndarray:
    """PaR restricted to each decade age group: infected members meeting
    the window over group size. Empty groups give NaN."""
    _check_window(trace, time, distance)
    if population.size != trace.node_count:
        raise ValueError("population and trace disagree on node count")
    hit = trace.status[time] & (trace.distances <= distance)
    groups = population.groups
    counts = np.bincount(groups[hit], minlength=GROUP_COUNT)
    sizes = np.bincount(groups, minlength=GROUP_COUNT)
    return np.divide(counts, sizes, out=np.full(GROUP_COUNT, np.nan), where=sizes > 0)


def risk_report(trace: EpidemicTrace, population: Population, net: NetworkSnapshot) -> dict:
    """JSON-ready summary: seeds and their degrees in `net`, final share,
    the PaR matrix, per-group PaR at the widest valid window, and the
    infection-by-distance table."""
    table = infection_by_distance(trace)
    matrix = _par_from_counts(table, trace.node_count)
    final_t = trace.horizon
    final_d = min(trace.distance_cap, final_t)
    groups = par_by_group(trace, population, final_t, final_d)
    seeds = trace.seeds
    return {
        "seeds": [int(s) for s in seeds],
        "horizon": trace.horizon,
        "distance_cap": trace.distance_cap,
        "infected_total": int(trace.status[-1].sum()),
        "final_share": float(matrix[final_t, final_d]),
        "par": [[None if math.isnan(x) else x for x in row] for row in matrix.tolist()],
        "par_by_group": [None if math.isnan(x) else x for x in groups.tolist()],
        "infection_by_distance": table.tolist(),
        "group_width": GROUP_WIDTH,
        "seed_degrees": [int(net.degrees[s]) for s in seeds],
    }


def trace_to_csv(trace: EpidemicTrace, path) -> None:
    """Per-node record: seed flag (row 0 of the trace holds exactly the
    seeds), distance from the seed set and first infection step (-1 if
    never infected)."""
    rows = zip(
        range(trace.node_count), trace.status[0].astype(np.int64).tolist(),
        trace.distances.tolist(), trace.infection_times().tolist(),
    )
    write_csv(path, ["node_id", "is_seed", "distance", "infection_time"], rows)
