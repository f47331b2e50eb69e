"""Scalar reference formulas that the tests compare the package against.

Each scalar function scores or decides one pair or one node at a time,
straight from the model's definitions; the package computes the same
quantities in bulk (growth of one network or of a fit's replicates in
`netgen.keep_pairs`, which scores each age code in use once; the
vectorised SI step in `epidemic.run_si`, which steps a ladder of
transmissibilities as the rows of one run). The dense SI loop runs one
transmissibility at a time, as a scalar. `select_seeds` ranks node ids
by degree counted from the edge rows. The dense functions run the SI
process and the seed distances on an n x n adjacency matrix, the way the
package did before it worked from the edge list and neighbour lists. The
PaR functions mask the trace once per (time, distance) window, the way the
package did before it read every window from one count table. `evaluate`
grows the replicates of a fit one at a time from the raw streams and a
90 x 90 age table, and `ba_target` makes each pick from a fresh
cumulative sum, the way the package did before it scored all replicates
in one array pass and kept running sums. `draws_row` hands a test the
draws of one replicate's single network.
"""

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from prefnet.epidemic import EpidemicTrace
from prefnet.features import (
    AGE_SPAN, age_pair_scores, GROUP_COUNT, group_counts, Population, sample_ages,
)
from prefnet.netgen import NetworkSnapshot, PairDraws
from prefnet.netmetrics import PatternDistribution
from prefnet.scenario import CounterStream, Preference, RngPolicy, Scenario


class Traits(NamedTuple):
    """One node's preference vectors, each of shape (feature_count,)."""

    level: np.ndarray
    level_weight: np.ndarray
    difference: np.ndarray
    difference_weight: np.ndarray


def node_traits(preference: Preference) -> Traits:
    """Traits of any node under the one preference that applies to every
    node, as length-1 vectors."""
    p = preference
    return Traits(
        np.array([p.level], dtype=float),
        np.array([p.level_weight], dtype=float),
        np.array([p.difference], dtype=float),
        np.array([p.difference_weight], dtype=float),
    )


def _check_lengths(f_i, f_j, traits_i: Traits, traits_j: Traits) -> int:
    lengths = {
        len(np.atleast_1d(f_i)),
        len(np.atleast_1d(f_j)),
        *(len(np.atleast_1d(a)) for a in traits_i),
        *(len(np.atleast_1d(a)) for a in traits_j),
    }
    if len(lengths) != 1:
        raise ValueError(f"feature/trait vectors disagree in length: {sorted(lengths)}")
    return lengths.pop()


def preferential_score(f_i, f_j, traits_i: Traits, traits_j: Traits) -> float:
    """Level term of a pair: each side rates the other's feature values.

    Equals 1 when both level weights are zero; a node with level +1 adds
    score for high-valued partners, level -1 for low-valued ones.
    """
    f_i = np.atleast_1d(np.asarray(f_i, dtype=np.float64))
    f_j = np.atleast_1d(np.asarray(f_j, dtype=np.float64))
    l = _check_lengths(f_i, f_j, traits_i, traits_j)
    a_i = np.atleast_1d(traits_i.level * traits_i.level_weight)
    a_j = np.atleast_1d(traits_j.level * traits_j.level_weight)
    return float((f_j * a_i).sum() / (2 * l) + (f_i * a_j).sum() / (2 * l) + 1.0)


def homophily_score(f_i, f_j, traits_i: Traits, traits_j: Traits) -> float:
    """Difference term of a pair: each side rates the feature gap.

    Equals 1 when both difference weights are zero; difference +1 rewards
    dissimilar partners, -1 rewards similar ones.
    """
    f_i = np.atleast_1d(np.asarray(f_i, dtype=np.float64))
    f_j = np.atleast_1d(np.asarray(f_j, dtype=np.float64))
    l = _check_lengths(f_i, f_j, traits_i, traits_j)
    gap = np.abs(f_i - f_j)
    b_i = np.atleast_1d(traits_i.difference * traits_i.difference_weight)
    b_j = np.atleast_1d(traits_j.difference * traits_j.difference_weight)
    return float((gap * b_i).sum() / (2 * l) + (gap * b_j).sum() / (2 * l) + 1.0)


def pair_score(
    i: int,
    j: int,
    population: Population,
    preference: Preference,
    encounter_stream: np.random.Generator,
    noise_stream: np.random.Generator,
    *,
    encounter_rate: float,
    noise_sigma: float,
) -> SimpleNamespace:
    """Score a single pair of the population under `preference`, consuming
    one encounter draw and (if the jitter width is positive) one noise
    draw. total = (mean of the two terms + noise) when the pair encounters,
    else 0."""
    if i == j:
        raise ValueError(f"pair requires distinct nodes, got ({i}, {j})")
    f, t = population.ages / AGE_SPAN, node_traits(preference)
    pp = preferential_score(f[i], f[j], t, t)
    ph = homophily_score(f[i], f[j], t, t)
    encountered = bool(encounter_stream.random() < encounter_rate)
    noise = float(noise_stream.normal(0.0, noise_sigma)) if noise_sigma > 0 else 0.0
    total = (0.5 * pp + 0.5 * ph + noise) if encountered else 0.0
    return SimpleNamespace(
        i=i, j=j, level_term=pp, difference_term=ph, noise=noise,
        encountered=encountered, total=total,
    )


def transition_probability(tau: float, exposures: int) -> float:
    """Probability that a susceptible node converts this step given its
    count of infected neighbours: 1 - (1 - tau)^exposures, 0 when there are
    no exposures."""
    if exposures < 0:
        raise ValueError(f"exposures must be non-negative, got {exposures}")
    if exposures == 0:
        return 0.0
    return float(1.0 - (1.0 - tau) ** exposures)


def dense_adjacency(net: NetworkSnapshot) -> np.ndarray:
    """Dense boolean adjacency matrix."""
    adj = np.zeros((net.node_count, net.node_count), dtype=bool)
    if net.edges.size:
        adj[net.edges[:, 0], net.edges[:, 1]] = True
        adj[net.edges[:, 1], net.edges[:, 0]] = True
    return adj


def multi_source_distances(net: NetworkSnapshot, sources: np.ndarray) -> np.ndarray:
    """Hop distance from the nearest source; unreachable nodes (and every
    node when there are no sources) get the sentinel value node_count."""
    n = net.node_count
    dist = np.full(n, n, dtype=np.int64)
    frontier = np.zeros(n, dtype=bool)
    frontier[np.asarray(sources, dtype=np.int64)] = True
    dist[frontier] = 0
    adj = dense_adjacency(net)
    d = 0
    while frontier.any():
        d += 1
        reached = adj[frontier].any(axis=0)
        new = reached & (dist == n)
        dist[new] = d
        frontier = new
    return dist


def select_seeds(net: NetworkSnapshot, count: int) -> np.ndarray:
    """The first `count` node ids ordered by (-degree, id), ascending, with
    each degree counted from the edge rows."""
    degree = [0] * net.node_count
    for i, j in net.edges.tolist():
        degree[i] += 1
        degree[j] += 1
    ranked = sorted(range(net.node_count), key=lambda v: (-degree[v], v))
    return np.array(sorted(ranked[:count]), dtype=np.int64)


def run_si(
    net: NetworkSnapshot,
    scenario: Scenario,
    stream: CounterStream,
    tau: float | None = None,
) -> EpidemicTrace:
    """The synchronous SI process at one transmissibility (default: the
    scenario's), with exposures from a dense matrix-vector product: row t
    counts each node's infected neighbours as adj @ status."""
    n = net.node_count
    if scenario.node_count != n:
        raise ValueError("network and scenario disagree on node count")
    if tau is None:
        tau = scenario.transmissibility

    seeds = select_seeds(net, scenario.seed_count)
    distances = multi_source_distances(net, seeds)
    adj_int = dense_adjacency(net).astype(np.int64)
    reachable = distances <= scenario.distance_cap

    status = np.zeros((scenario.horizon + 1, n), dtype=bool)
    status[0, seeds] = True
    for t in range(1, scenario.horizon + 1):
        prev = status[t - 1]
        exposures = adj_int @ prev
        prob = 1.0 - (1.0 - tau) ** exposures
        eligible = (~prev) & (exposures > 0) & reachable
        draws = stream.uniforms(t, n)
        status[t] = prev | (eligible & (draws < prob))
    return EpidemicTrace(status=status, distances=distances, distance_cap=scenario.distance_cap)


def par(trace: EpidemicTrace, time: int, distance: int) -> float:
    """Share of all nodes infected by step `time` at seed distance at most
    `distance`."""
    hit = trace.status[time] & (trace.distances <= distance)
    return float(hit.sum() / trace.node_count)


def par_matrix(trace: EpidemicTrace) -> np.ndarray:
    """par(time, distance) window by window; NaN where distance > time."""
    out = np.full((trace.horizon + 1, trace.distance_cap + 1), np.nan)
    for t in range(trace.horizon + 1):
        for d in range(min(t, trace.distance_cap) + 1):
            out[t, d] = par(trace, t, d)
    return out


def par_by_group(
    trace: EpidemicTrace, population: Population, time: int, distance: int
) -> np.ndarray:
    """par(time, distance) within each decade age group, group by group;
    NaN for an empty group."""
    hit = trace.status[time] & (trace.distances <= distance)
    out = np.full(GROUP_COUNT, np.nan)
    for g in range(GROUP_COUNT):
        members = population.groups == g
        size = int(members.sum())
        if size:
            out[g] = hit[members].sum() / size
    return out


def ba_target(n: int, m: int, stream: np.random.Generator) -> NetworkSnapshot:
    """Preferential attachment one pick at a time: each pick draws one
    uniform, takes the float cumulative sum of the remaining weights and
    zeroes the picked node's weight."""
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    degrees = np.zeros(n, dtype=np.int64)
    edges = np.zeros((m * (n - m), 2), dtype=np.int64)
    e = 0
    for v in range(m, n):
        weights = degrees[:v].astype(np.float64)
        if weights.sum() == 0:
            weights = np.ones(v)
        picked = []
        for _ in range(m):
            total = weights.sum()
            u = stream.random()
            c = int(np.searchsorted(np.cumsum(weights), u * total, side="right"))
            picked.append(c)
            weights[c] = 0.0
            edges[e] = (c, v)
            e += 1
        degrees[v] += m
        for c in picked:
            degrees[c] += 1
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return NetworkSnapshot(n, edges[order], np.ones(edges.shape[0]))


def draws_row(draws: PairDraws, r: int) -> PairDraws:
    """Row r of R replicates' pair draws as the one-row draws from which
    `generate_network` grows replicate r's network."""
    n, met = draws.node_count, int(draws.met[r])
    rows = slice(r, r + 1)
    return PairDraws(n, draws.i[rows, :met] - r * n, draws.j[rows, :met] - r * n,
                     draws.jitter[rows, :met], draws.met[rows])


def evaluate(
    preference: Preference, target: PatternDistribution, scenario: Scenario, replicates: int
) -> list[float]:
    """Degree-pattern divergence from the target of each replicate network,
    grown and compared one replicate at a time: draw the ages from the
    "feature-gen" stream and every pair's encounter and jitter from
    replicate r's streams, score the met pairs under `preference` from a
    90 x 90 age table, keep the budgeted best by a partial top-k, count
    degrees and their frequencies, and take the JS divergence against the
    target, both padded onto the union of 0..n-1 and the target's support."""
    n = scenario.node_count
    policy = RngPolicy(scenario.master_seed)
    ages = sample_ages(group_counts(scenario.age_shape, n), policy.stream("feature-gen"))
    every_age = np.arange(AGE_SPAN)
    table = age_pair_scores(preference, every_age[:, None], every_age[None, :]).ravel()
    iu, ju = np.triu_indices(n, 1)
    nodes = np.arange(n)
    union = np.union1d(nodes, target.support)
    target_mass = np.zeros(union.shape[0])
    target_mass[np.searchsorted(union, target.support)] = target.mass
    values = []
    for r in range(replicates):
        met = policy.stream("encounter", r).random(iu.shape[0]) < scenario.encounter_rate
        noise = np.zeros(iu.shape[0])
        if scenario.noise_sigma > 0:
            noise = policy.stream("noise", r).normal(0.0, scenario.noise_sigma, iu.shape[0])
        i, j = iu[met], ju[met]
        score = table.take(ages.take(i) * AGE_SPAN + ages.take(j)) + noise[met]
        k = min(scenario.edge_budget, i.shape[0])
        kth = np.partition(score, -k)[-k] if k else np.inf
        keep = score > kth
        tied = np.flatnonzero(score == kth)
        keep[tied[: k - np.count_nonzero(keep)]] = True
        degrees = np.bincount(i[keep], minlength=n) + np.bincount(j[keep], minlength=n)
        mass = np.zeros(union.shape[0])
        mass[np.searchsorted(union, nodes)] = np.bincount(degrees, minlength=n) / n
        m = 0.5 * (mass + target_mass)
        halves = [
            float((x[x > 0] * np.log2(x[x > 0] / m[x > 0])).sum()) for x in (mass, target_mass)
        ]
        values.append(max(0.0, min(1.0, 0.5 * halves[0] + 0.5 * halves[1])))
    return values
