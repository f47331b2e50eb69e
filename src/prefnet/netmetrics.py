"""Structural patterns of a network and distances between them.

`analyze` turns a network into three normalised distributions and a
summary table, from one clustering pass and one all-pairs path pass:
node degree (support 0..n-1), local clustering coefficient (20 equal bins
on [0, 1]) and pairwise shortest path length. Unreachable pairs are real
information here, not missing data: they enter the path-length pattern at
a sentinel length equal to the node count, one step beyond the longest
possible real path, and are tallied separately as fake paths.

Clustering counts closed walks with a dense matrix product. The path pass
is a multi-source breadth-first search in plain numpy that runs 64 sources
at once, one bit each of a 64-bit word per node (Then et al., "The More
the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014), so its
cost grows with the edge count and the diameter, not with n cubed.

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

from .netgen import NetworkSnapshot

CLUSTERING_BINS = 20
_BFS_BLOCK = 64  # sources per search block: the bits of one uint64 word


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


def _bits(words: np.ndarray) -> np.ndarray:
    """Unpack (n,) uint64 words to an (n, 64) 0/1 uint8 matrix whose
    column b holds bit b."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")


def shortest_path_matrix(net: NetworkSnapshot) -> np.ndarray:
    """All-pairs shortest path lengths as an int matrix, zero diagonal;
    unreachable pairs carry the sentinel length n (one beyond any real
    path).

    Bit-parallel breadth-first search: sources go 64 at a time, and node v
    holds one uint64 word whose bit b says whether source s0 + b has
    reached it. With the neighbour lists in CSR form, one level is a
    segmented OR of the frontier words over each node's neighbours, minus
    the bits already seen. The bits new at level L get length L, kept as
    bit planes (plane k holds bit k of each new bit's length) and unpacked
    once per block. A block ends at the first level that sets no new bit;
    bits never set are unreachable pairs.
    """
    n = net.node_count
    dist = np.empty((n, n), dtype=np.int64)
    i, j = net.edges[:, 0], net.edges[:, 1]
    nbr = np.concatenate((j, i))[np.argsort(np.concatenate((i, j)))]
    deg = net.degrees
    # reduceat misreads an empty segment, so only nodes with neighbours pull
    active = np.flatnonzero(deg)
    starts = (np.cumsum(deg) - deg)[active]
    source_bit = np.left_shift(np.uint64(1), np.arange(_BFS_BLOCK, dtype=np.uint64))
    for s0 in range(0, n, _BFS_BLOCK):
        width = min(_BFS_BLOCK, n - s0)
        seen = np.zeros(n, dtype=np.uint64)
        seen[s0 : s0 + width] = source_bit[:width]
        frontier = seen.copy()
        reach = np.zeros(n, dtype=np.uint64)
        planes: list[np.ndarray] = []
        level = 0
        while True:
            level += 1
            if active.size:
                reach[active] = np.bitwise_or.reduceat(frontier[nbr], starts)
            frontier = reach & ~seen
            if not frontier.any():
                break
            seen |= frontier
            if level.bit_length() > len(planes):
                planes.append(np.zeros(n, dtype=np.uint64))
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane |= frontier
        block = np.zeros((n, _BFS_BLOCK), dtype=np.int64)
        for k, plane in enumerate(planes):
            block += _bits(plane) * np.int64(1 << k)
        block[_bits(~seen).view(bool)] = n
        dist[:, s0 : s0 + width] = block[:, :width]
    return dist


def js_divergence(p: PatternDistribution, q: PatternDistribution) -> float:
    """Jensen-Shannon divergence in base 2, in [0, 1].

    Supports are unified by zero-padding to their union; zero-mass terms
    contribute nothing. 0 for identical distributions, 1 for distributions
    with disjoint support.
    """
    if p.kind != q.kind:
        raise ValueError(f"cannot compare {p.kind!r} with {q.kind!r} patterns")
    if np.array_equal(p.support, q.support):  # degree patterns share 0..n-1
        a, b = p.mass, q.mass
    else:
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
