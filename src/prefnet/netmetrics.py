"""Structural patterns of a network and distances between them.

`analyze` turns a network into three normalised distributions and a
summary table, from one clustering pass and one all-pairs path pass:
node degree (support 0..n-1), local clustering coefficient (20 equal bins
on [0, 1]) and pairwise shortest path length. Unreachable pairs are real
information here, not missing data: they enter the path-length pattern at
a sentinel length equal to the node count, one step beyond the longest
possible real path, and are tallied separately as fake paths.

Both passes work on bits. Clustering counts the triangles on each edge
(Schank & Wagner's edge iterator, WEA 2005) as the popcount of the AND of
its two end nodes' bitset rows, one bit per node, n/64 words per row. The
path pass is a multi-source breadth-first search in plain numpy that runs
64 sources at once, one bit each of a 64-bit word per node (Then et al.,
"The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB
2014), so its cost grows with the edge count and the diameter, not with n
cubed. Neither pass builds a dense n x n matrix of the graph; the only
n x n array is the path matrix itself, in the smallest unsigned type that
holds n.

Distributions are compared with the Jensen-Shannon divergence in base 2,
so the distance lives in [0, 1] whatever the supports are; supports are
first unified by zero-padding. The summary table mirrors the usual
connectivity / degree / clustering / path statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .netgen import NetworkSnapshot

CLUSTERING_BINS = 20
_BFS_BLOCK = 64  # sources per search block: the bits of one uint64 word
_TRIANGLE_BLOCK = 1 << 12  # edges per block of the triangle count
_GATHER_BLOCK = 1 << 15  # neighbour entries per chunk of one search level


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
    """Local clustering coefficient per node; nodes of degree < 2 get 0.

    Node v's bitset row holds bit u for each neighbour u, so edge (u, v)
    closes popcount(row_u & row_v) triangles. Adding each edge's count to
    both its ends gives every node twice its triangle count. The counts
    are exact integers, taken a block of edges at a time.
    """
    n = net.node_count
    words = -(-n // 64)
    rows = np.zeros(n * words, dtype=np.uint64)
    u, v = net.edges[:, 0], net.edges[:, 1]
    one = np.uint64(1)
    blocks = [slice(s, s + _TRIANGLE_BLOCK) for s in range(0, net.edge_count, _TRIANGLE_BLOCK)]
    for b in blocks:
        # Every (node, neighbour) bit is set once, so adding sets it.
        for a, c in ((u[b], v[b]), (v[b], u[b])):
            np.add.at(rows, a * words + (c >> 6), one << (c & 63).astype(np.uint64))
    rows = rows.reshape(n, words)
    triangles = np.empty(net.edge_count)
    ones = np.ones(words)
    for b in blocks:
        common = rows.take(u[b], axis=0) & rows.take(v[b], axis=0)
        # A product with ones sums the popcounts fastest; they are small
        # integers, so the float sums are exact.
        triangles[b] = np.bitwise_count(common) @ ones
    closed = np.bincount(u, triangles, n) + np.bincount(v, triangles, n)
    deg = net.degrees.astype(np.float64)
    denom = deg * (deg - 1)
    values = np.zeros(n)
    ok = denom > 0
    values[ok] = closed[ok] / denom[ok]
    return values


def _bits(words: np.ndarray) -> np.ndarray:
    """Unpack (n,) uint64 words to an (n, 64) 0/1 uint8 matrix whose
    column b holds bit b."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")


def _pushed(n: int, run: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """The (n,) words whose bit b marks the neighbours of source b, for
    up to 64 sources of degrees `deg` whose neighbour lists, in order, are
    `run`: each (neighbour, source) entry sets one bit of an n x 64 bit
    matrix, packed to one word per node."""
    hit = np.zeros((n, _BFS_BLOCK), dtype=bool)
    hit[run, np.repeat(np.arange(deg.shape[0], dtype=np.uint8), deg)] = True
    return np.packbits(hit, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def _pull(chunks, frontier: np.ndarray, reach: np.ndarray) -> None:
    """Set reach[v], for each node v with neighbours, to the OR of its
    neighbours' frontier words, a chunk of `chunks` at a time."""
    for nodes, pull, local_starts in chunks:
        reach[nodes] = np.bitwise_or.reduceat(frontier[pull], local_starts)


def shortest_path_matrix(net: NetworkSnapshot) -> np.ndarray:
    """All-pairs shortest path lengths as a matrix of the smallest
    unsigned integer type that holds n, zero diagonal; unreachable pairs
    carry the sentinel length n (one beyond any real path).

    Bit-parallel breadth-first search: sources go 64 at a time, and node v
    holds one uint64 word whose bit b says whether source s0 + b has
    reached it. With the neighbour lists in CSR form, one level pulls: a
    segmented OR of the frontier words over each node's neighbours, minus
    the bits already seen. Level 1 of a block whose sources hold few of
    the entries pushes from their lists instead (Beamer et al., SC 2012).
    The bits new at level L get length L, kept as bit planes (plane k
    holds bit k of each new bit's length) and unpacked once per block. A
    block ends once every node has seen all of its sources, or at the
    first level that sets no new bit; bits never set are unreachable pairs.
    """
    n = net.node_count
    # Indexing converts int32 indices to intp; converting once here is
    # cheaper than converting at every level.
    nbr = net.neighbours.astype(np.intp)
    deg = net.degrees
    ends = np.cumsum(deg)
    dist = np.empty((n, n), dtype=np.min_scalar_type(n))
    # reduceat misreads an empty segment, so only nodes with neighbours
    # pull, a chunk of nodes at a time: a new chunk starts at the node
    # whose list holds each multiple of _GATHER_BLOCK.
    active = np.flatnonzero(deg)
    starts = (ends - deg)[active]
    bounds = np.append(starts, nbr.shape[0]).tolist()
    marks = np.arange(_GATHER_BLOCK, nbr.shape[0], _GATHER_BLOCK)
    holders = np.searchsorted(starts, marks, side="right") - 1
    cuts = sorted({0, *holders.tolist()}) + [active.size]
    chunks = [
        (active[a:b], nbr[bounds[a] : bounds[b]], starts[a:b] - bounds[a])
        for a, b in zip(cuts, cuts[1:])
        if a < b
    ]
    source_bit = np.left_shift(np.uint64(1), np.arange(_BFS_BLOCK, dtype=np.uint64))
    for s0 in range(0, n, _BFS_BLOCK):
        width = min(_BFS_BLOCK, n - s0)
        seen = np.zeros(n, dtype=np.uint64)
        seen[s0 : s0 + width] = source_bit[:width]
        every = np.bitwise_or.reduce(source_bit[:width])
        # The block's own neighbour lists are one run of `nbr`. Where they
        # hold at most a quarter of it, level 1 pushes from them and
        # reads no other entry; else it pulls, as every later level does.
        run = slice(ends[s0] - deg[s0], ends[s0 + width - 1])
        if 4 * (run.stop - run.start) <= nbr.shape[0]:
            reach = _pushed(n, nbr[run], deg[s0 : s0 + width])
        else:
            reach = np.zeros(n, dtype=np.uint64)
            _pull(chunks, seen, reach)
        planes: list[np.ndarray] = []
        level = 1
        while True:
            frontier = reach & ~seen
            if not frontier.any():
                break
            seen |= frontier
            if level.bit_length() > len(planes):
                planes.append(np.zeros(n, dtype=np.uint64))
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane |= frontier
            if seen.min() == every:  # every node has seen every source
                break
            level += 1
            _pull(chunks, frontier, reach)
        block = np.zeros((n, _BFS_BLOCK), dtype=dist.dtype)
        for k, plane in enumerate(planes):
            block += _bits(plane).astype(dist.dtype) << k
        block[_bits(~seen).view(bool)] = n
        dist[:, s0 : s0 + width] = block[:, :width]
    return dist


def support_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two strictly increasing supports. Equal to
    `np.union1d`, whose `np.unique` imports `numpy.ma` (about 1.4 MB of
    resident memory) on first use."""
    union = np.concatenate((a, b))
    union.sort()
    keep = np.ones(union.shape[0], dtype=bool)
    np.not_equal(union[1:], union[:-1], out=keep[1:])
    return union[keep]


def pad_mass(p: PatternDistribution, union: np.ndarray) -> np.ndarray:
    """p's mass zero-padded onto `union`, a sorted support that holds p's."""
    mass = np.zeros(union.shape[0])
    mass[np.searchsorted(union, p.support)] = p.mass
    return mass


def js_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence in base 2 of each row of `a`, an (R, U)
    array of masses, against the mass `b` over the same support, clipped
    to [0, 1]; zero-mass terms contribute nothing."""
    m = 0.5 * (a + b)
    # Each half sums a row's nonzero terms in support order, as one
    # contiguous run, so that a row sums the way it would alone.
    nz = a > 0
    xs = a[nz]
    terms = xs * np.log2(xs / m[nz])
    a_half = []
    start = 0
    for end in np.cumsum(np.count_nonzero(nz, axis=1)).tolist():
        a_half.append(terms[start:end].sum())
        start = end
    # b's nonzero terms sit in the same columns of every row.
    on = b > 0
    bs = b[on]
    b_half = (bs * np.log2(bs / np.ascontiguousarray(m[:, on]))).sum(axis=1)
    return np.minimum(np.maximum(0.5 * np.array(a_half) + 0.5 * b_half, 0.0), 1.0)


def js_divergence(p: PatternDistribution, q: PatternDistribution) -> float:
    """Jensen-Shannon divergence in base 2, in [0, 1].

    Supports are unified by zero-padding to their union; zero-mass terms
    contribute nothing. 0 for identical distributions, 1 for distributions
    with disjoint support.
    """
    if p.kind != q.kind:
        raise ValueError(f"cannot compare {p.kind!r} with {q.kind!r} patterns")
    union = support_union(p.support, q.support)
    return float(js_masses(pad_mass(p, union)[None], pad_mass(q, union))[0])


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
    # The mask reads the upper triangle row-major, as pairs (i < j) are
    # ordered everywhere else.
    lengths = shortest_path_matrix(net)[np.arange(n)[:, None] < np.arange(n)]
    have_pairs = lengths.size > 0

    cc_counts, _ = np.histogram(cc, bins=CLUSTERING_BINS, range=(0.0, 1.0))
    path_support, path_counts = np.unique(lengths, return_counts=True)
    path_mass = path_counts / lengths.shape[0]
    # With no nodes the clustering distribution is empty, as the degree one is.
    cc_mass = cc_counts / n if n else cc_counts[:0]
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
        fake_paths=int((lengths == n).sum()),
        path_avg=float(lengths.mean()) if have_pairs else 0.0,
        path_std=float(lengths.std()) if have_pairs else 0.0,
        path_max=int(lengths.max()) if have_pairs else 0,
        path_min=int(lengths.min()) if have_pairs else 0,
    )
    return NetworkPatterns(
        summary=summary,
        degree=degree_distribution(net),
        clustering=PatternDistribution("clustering", np.arange(cc_mass.shape[0]), cc_mass),
        path_length=PatternDistribution("path_length", path_support, path_mass),
    )


def distribution_to_csv(dist: PatternDistribution, path) -> None:
    write_csv(path, [dist.kind, "mass"], zip(dist.support.tolist(), dist.mass.tolist()))
