"""Network growth from pairwise connection preferences.

Every unordered pair of nodes gets a score built from two ingredients: a
level term (does each side like the other's feature value, scaled by its
level weight) and a difference term (does each side like the feature gap,
scaled by its difference weight). Both terms are centred at 1 so that a
node with zeroed weights is indifferent rather than hostile. The pair
total averages the two terms, adds Gaussian jitter, and is gated by a
Bernoulli encounter: pairs that never meet score zero and can never link.

The edge budget selects the top-scoring encountered pairs; ties break
lexicographically by node ids so runs are exactly reproducible. Each edge
keeps a strength in (0, 1], an affine rescaling of its score. A classic
scale-free growth process is included as a comparison target.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .features import Population
from .scenario import Scenario


class Traits(NamedTuple):
    """One node's preference vectors, each of shape (feature_count,)."""

    level: np.ndarray
    level_weight: np.ndarray
    difference: np.ndarray
    difference_weight: np.ndarray


def node_traits(population: Population, v: int) -> Traits:
    return Traits(
        population.level[v],
        population.level_weight[v],
        population.difference[v],
        population.difference_weight[v],
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


def edge_strength(score: float, feature_count: int = 1):
    """Affine map from a pair score to an edge strength: 0 maps to 1/2 and
    the typical score range lands in (0, 1]."""
    return (score + 2 * feature_count) / (4 * feature_count)


@dataclass(frozen=True)
class PairScore:
    """Scored pair: component terms, jitter, encounter gate and total."""

    i: int
    j: int
    level_term: float
    difference_term: float
    noise: float
    encountered: bool
    total: float


def pair_score(
    i: int,
    j: int,
    population: Population,
    encounter_stream: np.random.Generator,
    noise_stream: np.random.Generator,
    *,
    encounter_rate: float,
    noise_sigma: float,
) -> PairScore:
    """Score a single pair, consuming one encounter draw and (if the jitter
    width is positive) one noise draw. total = (mean of the two terms +
    noise) when the pair encounters, else 0."""
    if i == j:
        raise ValueError(f"pair requires distinct nodes, got ({i}, {j})")
    f = population.features
    pp = preferential_score(f[i], f[j], node_traits(population, i), node_traits(population, j))
    ph = homophily_score(f[i], f[j], node_traits(population, i), node_traits(population, j))
    encountered = bool(encounter_stream.random() < encounter_rate)
    noise = float(noise_stream.normal(0.0, noise_sigma)) if noise_sigma > 0 else 0.0
    total = (0.5 * pp + 0.5 * ph + noise) if encountered else 0.0
    return PairScore(i, j, pp, ph, noise, encountered, total)


@dataclass
class NetworkSnapshot:
    """Undirected simple graph with per-edge strengths.

    edges is an (E, 2) int array with i < j per row, rows sorted
    lexicographically; gamma holds the matching edge strengths.
    """

    node_count: int
    edges: np.ndarray
    gamma: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.gamma = np.asarray(self.gamma, dtype=np.float64).reshape(-1)
        if self.gamma.shape[0] != self.edges.shape[0]:
            raise ValueError(
                f"gamma length {self.gamma.shape[0]} does not match "
                f"edge count {self.edges.shape[0]}"
            )
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= self.node_count:
                raise ValueError("edge endpoints out of range")
            if (self.edges[:, 0] >= self.edges[:, 1]).any():
                raise ValueError("edges must satisfy i < j")
            keys = self.edges[:, 0] * self.node_count + self.edges[:, 1]
            # Strictly increasing keys (the usual, sorted case) are unique.
            if not (keys[1:] > keys[:-1]).all() and np.unique(keys).shape[0] != keys.shape[0]:
                raise ValueError("duplicate edges")

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix."""
        adj = np.zeros((self.node_count, self.node_count), dtype=bool)
        if self.edges.size:
            adj[self.edges[:, 0], self.edges[:, 1]] = True
            adj[self.edges[:, 1], self.edges[:, 0]] = True
        return adj

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.node_count)
        return deg.astype(np.int64, copy=False)


def _sorted_edge_order(edges: np.ndarray) -> np.ndarray:
    return np.lexsort((edges[:, 1], edges[:, 0]))


@lru_cache(maxsize=1)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j) indices of all unordered pairs, shared read-only
    between calls for the same node count."""
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def generate_network(
    population: Population,
    scenario: Scenario,
    encounter_stream: np.random.Generator,
    noise_stream: np.random.Generator,
    provenance_extra: dict | None = None,
) -> NetworkSnapshot:
    """Grow a network by scoring all pairs and keeping the budgeted best.

    Unordered pairs are enumerated lexicographically; the encounter stream
    supplies one uniform per pair in that order, then the noise stream
    supplies one Gaussian per pair (skipped entirely when the jitter width
    is zero). The edge budget keeps the k = min(budget, met) highest-scoring
    encountered pairs, ranked by (score desc, i asc, j asc). The ranking is
    a partial top-k: a partition finds the k-th largest met score, every
    met pair above it is kept, and the remaining slots go to the pairs tied
    at it, lowest pair index (and so lowest (i, j)) first. Kept pairs stay
    in pair order, so edge rows come out sorted. If fewer pairs encounter
    than the budget asks for, all of them are linked and a shortfall
    warning is recorded. Edge strength is (score + 2 l) / (4 l), an
    order-preserving map into (0, 1] for the typical score range.
    """
    n = population.size
    if n != scenario.node_count:
        raise ValueError(
            f"population size {n} does not match scenario node_count {scenario.node_count}"
        )
    l = population.feature_count
    iu, ju = _pair_indices(n)
    pair_count = iu.shape[0]

    f = population.features
    a = population.level * population.level_weight
    b = population.difference * population.difference_weight
    level_term = (
        f.take(ju, axis=0) * a.take(iu, axis=0) + f.take(iu, axis=0) * a.take(ju, axis=0)
    ).sum(axis=1) / (2 * l) + 1.0
    gap = np.abs(f.take(iu, axis=0) - f.take(ju, axis=0))
    diff_term = (gap * b.take(iu, axis=0) + gap * b.take(ju, axis=0)).sum(axis=1) / (2 * l) + 1.0

    encountered = encounter_stream.random(pair_count) < scenario.encounter_rate
    if scenario.noise_sigma > 0:
        noise = noise_stream.normal(0.0, scenario.noise_sigma, pair_count)
    else:
        noise = np.zeros(pair_count)
    score = 0.5 * level_term + 0.5 * diff_term + noise

    met = np.flatnonzero(encountered)
    shortfall = met.shape[0] < scenario.edge_budget
    if shortfall:
        warnings.warn(
            f"only {met.shape[0]} pairs encountered, below the edge budget "
            f"of {scenario.edge_budget}; linking all of them",
            stacklevel=2,
        )
    k = min(scenario.edge_budget, met.shape[0])
    met_score = score[met]
    kth = np.partition(met_score, -k)[-k] if k else np.inf
    keep = met_score > kth
    tied = np.flatnonzero(met_score == kth)
    keep[tied[: k - np.count_nonzero(keep)]] = True
    chosen = met[keep]

    provenance = {
        "kind": "generated",
        "scenario": scenario.scenario_hash(),
        "streams": ["encounter", "noise"],
        "shortfall": bool(shortfall),
    }
    if provenance_extra:
        provenance.update(provenance_extra)
    return NetworkSnapshot(
        node_count=n,
        edges=np.column_stack((iu[chosen], ju[chosen])),
        gamma=edge_strength(score[chosen], l),
        provenance=provenance,
    )


def ba_target(n: int, m: int, stream: np.random.Generator) -> NetworkSnapshot:
    """Scale-free reference network grown by preferential attachment.

    Starts from m isolated nodes; each arriving node attaches to m distinct
    existing nodes with probability proportional to degree (uniformly when
    all degrees are still zero). Produces exactly m * (n - m) edges, all
    with strength 1.
    """
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
    order = _sorted_edge_order(edges)
    return NetworkSnapshot(
        node_count=n,
        edges=edges[order],
        gamma=np.ones(edges.shape[0]),
        provenance={"kind": "ba", "n": n, "m": m},
    )


def save_network(net: NetworkSnapshot, path, meta_path=None) -> None:
    """Write an i,j,gamma edge list (and optionally a JSON side file with
    node count and provenance)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "gamma"])
        for (i, j), g in zip(net.edges, net.gamma):
            writer.writerow([int(i), int(j), repr(float(g))])
    if meta_path is not None:
        meta = {
            "node_count": net.node_count,
            "edge_count": net.edge_count,
            "provenance": net.provenance,
        }
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_edge_list(path, node_count: int | None = None) -> NetworkSnapshot:
    """Read an edge list CSV with columns i,j[,gamma]; the first non-empty
    row is a header when its first cell is not a number. Gamma must be
    finite. Node count defaults to max id + 1."""
    rows: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        records = [(reader.line_num, r) for r in reader if r and r[0].strip()]
    if records and not _is_number(records[0][1][0]):
        records = records[1:]  # header
    for line, record in records:
        try:
            i, j = int(record[0]), int(record[1])
            g = float(record[2]) if len(record) > 2 and record[2].strip() else 1.0
        except (IndexError, ValueError):
            raise ValueError(
                f"{path}: line {line}: expected i,j[,gamma], got {','.join(record)!r}"
            ) from None
        if not math.isfinite(g):
            raise ValueError(f"{path}: line {line}: gamma must be finite, got {record[2]!r}")
        if i == j:
            raise ValueError(f"self-loop {i},{j} in edge list")
        if i > j:
            i, j = j, i
        rows.append((i, j, g))
    if rows:
        edges = np.array([(i, j) for i, j, _ in rows], dtype=np.int64)
        gamma = np.array([g for _, _, g in rows])
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        gamma = np.zeros(0)
    inferred = int(edges.max()) + 1 if edges.size else 0
    n = node_count if node_count is not None else inferred
    order = _sorted_edge_order(edges) if edges.size else np.zeros(0, dtype=np.int64)
    return NetworkSnapshot(
        node_count=n,
        edges=edges[order],
        gamma=gamma[order],
        provenance={"kind": "imported", "path": str(path)},
    )
