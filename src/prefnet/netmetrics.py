"""Structural patterns of a network and distances between them.

`analyze` turns a network into three normalised distributions and a
summary table, from one clustering pass and one all-pairs path pass:
node degree (support 0..n-1), local clustering coefficient (20 equal bins
on [0, 1]) and pairwise shortest path length. Unreachable pairs are real
information here, not missing data: they enter the path-length pattern at
a sentinel length equal to the node count, one step beyond the longest
possible real path, and are tallied separately as fake paths.

Distributions are compared with the Jensen-Shannon divergence in base 2,
so the distance lives in [0, 1] whatever the supports are; supports are
first unified by zero-padding. The summary table mirrors the usual
connectivity / degree / clustering / path statistics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from .netgen import NetworkSnapshot

CLUSTERING_BINS = 20


@dataclass(frozen=True)
class PatternDistribution:
    """Discrete distribution over integer-labelled support.

    kind is one of "degree", "clustering", "path_length": degree and
    path_length label support by value, clustering by bin index (bin k
    covers [k/20, (k+1)/20), the last bin closed).
    """

    kind: str
    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64))
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=np.float64))
        if self.support.ndim != 1 or self.support.shape != self.mass.shape:
            raise ValueError("support and mass must be 1-d arrays of equal length")
        if self.support.size and (np.diff(self.support) <= 0).any():
            raise ValueError("support must be strictly increasing")
        if (self.mass < 0).any():
            raise ValueError("mass must be non-negative")
        total = self.mass.sum()
        if self.support.size and abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass must sum to 1, got {total!r}")


def degree_distribution(net: NetworkSnapshot) -> PatternDistribution:
    """Fraction of nodes at each degree, over the full support 0..n-1."""
    n = net.node_count
    counts = np.bincount(net.degrees, minlength=n)
    return PatternDistribution("degree", np.arange(n), counts / n)


def clustering_values(net: NetworkSnapshot) -> np.ndarray:
    """Local clustering coefficient per node; nodes of degree < 2 get 0."""
    adj = net.adjacency.astype(np.float64)
    closed = ((adj @ adj) * adj).sum(axis=1)  # 2 * triangles per node
    deg = net.degrees.astype(np.float64)
    denom = deg * (deg - 1)
    values = np.zeros(net.node_count)
    ok = denom > 0
    values[ok] = closed[ok] / denom[ok]
    return values


def shortest_path_matrix(net: NetworkSnapshot) -> np.ndarray:
    """All-pairs shortest path lengths as an int matrix, zero diagonal;
    unreachable pairs carry the sentinel length n (one beyond any real
    path)."""
    n = net.node_count
    if net.edge_count:
        graph = csr_matrix(
            (np.ones(net.edge_count), (net.edges[:, 0], net.edges[:, 1])),
            shape=(n, n),
        )
        dist = _sp_shortest_path(graph, method="D", directed=False, unweighted=True)
    else:
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
    dist[np.isinf(dist)] = n
    return dist.astype(np.int64)


def js_divergence(p: PatternDistribution, q: PatternDistribution) -> float:
    """Jensen-Shannon divergence in base 2, in [0, 1].

    Supports are unified by zero-padding to their union; zero-mass terms
    contribute nothing. 0 for identical distributions, 1 for distributions
    with disjoint support.
    """
    if p.kind != q.kind:
        raise ValueError(f"cannot compare {p.kind!r} with {q.kind!r} patterns")
    union = np.union1d(p.support, q.support)
    a = np.zeros(union.shape[0])
    b = np.zeros(union.shape[0])
    a[np.searchsorted(union, p.support)] = p.mass
    b[np.searchsorted(union, q.support)] = q.mass
    m = 0.5 * (a + b)

    def _half(x: np.ndarray) -> float:
        nz = x > 0
        return float((x[nz] * np.log2(x[nz] / m[nz])).sum())

    value = 0.5 * _half(a) + 0.5 * _half(b)
    return max(0.0, min(1.0, value))


@dataclass(frozen=True)
class SummaryStats:
    """Connectivity, degree, clustering and path statistics of a network."""

    node_count: int
    edge_count: int
    connected_count: int
    unconnected_count: int
    degree_avg: float
    degree_std: float
    degree_max: int
    degree_min: int
    clustering_avg: float
    clustering_std: float
    clustering_max: float
    clustering_min: float
    fake_paths: int
    path_avg: float
    path_std: float
    path_max: int
    path_min: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class NetworkPatterns:
    """Summary statistics and the three pattern distributions of a network."""

    summary: SummaryStats
    degree: PatternDistribution
    clustering: PatternDistribution
    path_length: PatternDistribution


def analyze(net: NetworkSnapshot) -> NetworkPatterns:
    """Summary and pattern distributions from one clustering pass and one
    all-pairs path pass. Degree and clustering statistics run over nodes,
    path statistics over unordered pairs, with unreachable pairs at the
    sentinel length."""
    n = net.node_count
    deg = net.degrees
    cc = clustering_values(net)
    lengths = shortest_path_matrix(net)[np.triu_indices(n, 1)]
    have_pairs = lengths.size > 0

    cc_counts, _ = np.histogram(cc, bins=CLUSTERING_BINS, range=(0.0, 1.0))
    path_support, path_counts = np.unique(lengths, return_counts=True)
    path_mass = (
        path_counts / lengths.shape[0] if have_pairs else path_counts.astype(np.float64)
    )
    summary = SummaryStats(
        node_count=n,
        edge_count=net.edge_count,
        connected_count=int((deg > 0).sum()),
        unconnected_count=int((deg == 0).sum()),
        degree_avg=float(deg.mean()) if n else 0.0,
        degree_std=float(deg.std()) if n else 0.0,
        degree_max=int(deg.max()) if n else 0,
        degree_min=int(deg.min()) if n else 0,
        clustering_avg=float(cc.mean()) if n else 0.0,
        clustering_std=float(cc.std()) if n else 0.0,
        clustering_max=float(cc.max()) if n else 0.0,
        clustering_min=float(cc.min()) if n else 0.0,
        fake_paths=int((lengths == n).sum()) if have_pairs else 0,
        path_avg=float(lengths.mean()) if have_pairs else 0.0,
        path_std=float(lengths.std()) if have_pairs else 0.0,
        path_max=int(lengths.max()) if have_pairs else 0,
        path_min=int(lengths.min()) if have_pairs else 0,
    )
    return NetworkPatterns(
        summary=summary,
        degree=degree_distribution(net),
        clustering=PatternDistribution(
            "clustering", np.arange(CLUSTERING_BINS), cc_counts / n
        ),
        path_length=PatternDistribution("path_length", path_support, path_mass),
    )


def distribution_to_csv(dist: PatternDistribution, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([dist.kind, "mass"])
        for s, m in zip(dist.support, dist.mass):
            writer.writerow([int(s), repr(float(m))])


def summary_to_json(stats: SummaryStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
