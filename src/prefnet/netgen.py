"""Network growth from pairwise connection preferences.

Every unordered pair of nodes gets a score built from two ingredients: a
level term (does each side like the other's feature value, scaled by its
level weight) and a difference term (does each side like the feature gap,
scaled by its difference weight). Both terms are centred at 1 so that a
zeroed weight makes a node indifferent rather than hostile. The pair
total averages the two terms, adds Gaussian jitter, and is gated by a
Bernoulli encounter: pairs that never meet can never link.

This module alone decides growth, in three steps. `pair_draws`, the only
code that reads the "encounter" and "noise" streams, draws which pairs
met and their jitter; it lays out R replicates as rows of one padded
array, one row for a single network and R rows for a fit, which grows
every candidate's replicate r from the same row r. With the scenario's
one preference for every node the averaged terms depend only on the two
ages, so `age_code_slots` maps the met pairs to the age codes in use,
each scored once by `features.age_pair_scores`. `keep_pairs` scores
every row's met pairs and keeps each row's budgeted best; both
`generate_network` (one row) and `optimizer.evaluate` (R rows) grow
through it.

The edge budget selects the top-scoring encountered pairs; ties break
lexicographically by node ids so runs are exactly reproducible. Each edge
keeps a strength (score + 2) / 4, which lies in (0, 1] for the typical
score range. A classic scale-free growth process is included as a
comparison target.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import edge_rows
from .features import AGE_SPAN, age_pair_scores, Population
from .scenario import Preference, RngPolicy, Scenario

# Pairs drawn per block by `pair_draws` and rows formatted per block by
# `save_network`: the temporaries of either loop stay this size whatever
# the network's size.
_DRAW_BLOCK = 1 << 16
_WRITE_BLOCK = 1 << 12
# An edge list's node ids stay below int64's largest value, so that its
# node count, max id + 1, fits int64.
_ID_LIMIT = 2**63 - 1


def edge_strength(score):
    """Affine map from a pair score to an edge strength, (score + 2) / 4:
    0 maps to 1/2 and the typical score range lands in (0, 1]."""
    return (score + 2) / 4


@dataclass
class NetworkSnapshot:
    """Undirected simple graph with per-edge strengths.

    edges is an (E, 2) int array of unique rows, i < j in each, in any order
    (the package's builders sort them); gamma holds their edge strengths.
    """

    node_count: int
    edges: np.ndarray
    gamma: np.ndarray

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
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.node_count)
        return deg.astype(np.int64, copy=False)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """Neighbour ids (int32) grouped by node, in CSR order: node v's
        `degrees[v]` neighbours follow those of every node below v, in
        ascending order."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        # Sort the directed pairs by the key source * n + target, then keep
        # the targets.
        keys = np.concatenate((i, j))
        keys *= self.node_count
        keys += np.concatenate((j, i))
        keys.sort()
        keys %= self.node_count
        return keys.astype(np.int32)


def _sorted_edge_order(edges: np.ndarray) -> np.ndarray:
    return np.lexsort((edges[:, 1], edges[:, 0]))


@dataclass(frozen=True)
class PairDraws:
    """The random part of growing R replicate networks: which pairs met,
    and their jitter.

    Row r of the (R, M) arrays holds replicate r's met pairs in pair
    order, which is (i, j) order, padded to M, the largest met count: i
    and j (int32) are the endpoints offset by r * n, so the degrees of all
    replicates count in one array of R * n; jitter is each pair's Gaussian
    jitter (zeros when the jitter width is zero), -inf in the pads so that
    they never rank among the kept. met holds the met counts. Pairs that
    never met are not kept, so the draws cost O(met pairs), not O(all
    pairs).
    """

    node_count: int
    i: np.ndarray
    j: np.ndarray
    jitter: np.ndarray
    met: np.ndarray


def pair_draws(scenario: Scenario, replicates: int = 1) -> PairDraws:
    """Draw the encounters and jitter of replicates 0..R-1.

    Replicate r reads the "encounter" and "noise" substreams indexed r.
    Unordered pairs are enumerated lexicographically; the encounter stream
    supplies one uniform per pair in that order, and the noise stream one
    Gaussian per pair (none at all when the jitter width is zero). Only the
    met pairs are kept. Pairs go a block of rows at a time, each block's
    draws continuing each stream where the last block left it, so the
    draws equal one draw over all pairs. A first pass keeps one bit per
    pair for every replicate's encounters; the second writes each
    replicate's met pairs into its row, sized from the first. A jitter
    that overflows to infinity is a ValueError naming noise_sigma.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    n = scenario.node_count
    sigma = scenario.noise_sigma
    policy = RngPolicy(scenario.master_seed)
    rows_per_block = max(1, _DRAW_BLOCK // n)
    blocks = [np.arange(r0, min(r0 + rows_per_block, n), dtype=np.int32)
              for r0 in range(0, n, rows_per_block)]
    sizes = [int((n - 1 - rows).sum()) for rows in blocks]
    met_bits = []  # met_bits[r][b]: replicate r's encounters in block b
    for r in range(replicates):
        encounter = policy.stream("encounter", r)
        met_bits.append([
            np.packbits(encounter.random(size) < scenario.encounter_rate) for size in sizes
        ])
    met = np.array([sum(int(np.bitwise_count(b).sum()) for b in bits) for bits in met_bits])
    shape = (replicates, int(met.max()))
    i = np.zeros(shape, dtype=np.int32)
    j = np.zeros(shape, dtype=np.int32)
    jitter = np.full(shape, -np.inf)
    noise = [policy.stream("noise", r) for r in range(replicates)]
    at = [0] * replicates
    for b, (rows, size) in enumerate(zip(blocks, sizes)):
        # Row i of the block holds the pairs (i, i + 1) ... (i, n - 1) from
        # flat index `starts` on, so the met pair at flat index f of the
        # block is (i, f - starts + i + 1); a search of the sorted met
        # indices for each row's start counts the row's met pairs.
        starts = np.cumsum(n - 1 - rows) - (n - 1 - rows)
        for r in range(replicates):
            flat = np.flatnonzero(np.unpackbits(met_bits[r][b], count=size))
            per_row = np.diff(np.searchsorted(flat, starts), append=flat.shape[0])
            block = slice(at[r], at[r] + flat.shape[0])
            i[r, block] = np.repeat(rows + r * n, per_row)
            j[r, block] = flat - np.repeat(starts - rows - 1 - r * n, per_row)
            if sigma > 0:
                drawn = noise[r].normal(0.0, sigma, size).take(flat)
                if not np.isfinite(drawn).all():
                    raise ValueError(
                        f"noise_sigma: {sigma!r} draws a jitter beyond the float range"
                    )
                jitter[r, block] = drawn
            else:
                jitter[r, block] = 0.0
            at[r] = block.stop
    return PairDraws(n, i, j, jitter, met)


def age_code_slots(
    ages: np.ndarray, draws: PairDraws
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The age codes a * 90 + b that the met pairs of `draws` use, and each
    pair's slot among them.

    Row r of `draws` holds met[r] pairs with endpoints offset by r * n, for
    the n nodes aged `ages`, then pads. Returns the ages (a, b) of the
    sorted codes in use, so that `features.age_pair_scores` scores each
    code once, and an int16 (R, M) array of each pair's position among
    them, 0 in the pads, whose codes are not counted.
    """
    # A code stays below 8100, so int16 holds it; "wrap" takes each
    # endpoint modulo n, which undoes the row offsets.
    ages16 = ages.astype(np.int16)
    codes = ages16.take(draws.i, mode="wrap") * AGE_SPAN + ages16.take(draws.j, mode="wrap")
    real = np.arange(codes.shape[1]) < draws.met[:, None]
    in_use = np.bincount(codes[real], minlength=AGE_SPAN * AGE_SPAN) > 0
    used = np.flatnonzero(in_use)
    slot = (np.cumsum(in_use) - 1).astype(np.int16).take(codes)
    slot[~real] = 0
    return (used // AGE_SPAN, used % AGE_SPAN), slot


def keep_pairs(
    preference: Preference, budget: int, draws: PairDraws,
    code_ages: tuple[np.ndarray, np.ndarray], slot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every row's met pairs and keep each row's budgeted best:
    returns the flat indices, in pair order, of the k = min(budget,
    met[r]) kept pairs of every row r of `draws`, and the (R, M) scores.

    A met pair scores `features.age_pair_scores` of its two ages under
    `preference` (the mean of its level and difference terms), looked up
    by its `slot` among the age codes in use, whose ages are `code_ages`
    (see `age_code_slots`), plus its jitter. The pads' -inf jitter makes
    their scores -inf, so they rank last and are never kept. Pairs rank by
    (score desc, pair order asc) in a partial top-k: one partition of all
    rows finds each row's budget-th largest score, every pair at or above
    it is kept, and of the pairs tied at it only the first in pair order
    stay. A row with fewer met pairs than the budget keeps all of them,
    with one shortfall warning per such row, pointing at the caller of
    `generate_network` or `optimizer.evaluate`.
    """
    score = age_pair_scores(preference, *code_ages).take(slot)
    score += draws.jitter
    met, width = draws.met, score.shape[1]
    for count in met[met < budget].tolist():
        warnings.warn(
            f"only {count} pairs encountered, below the edge budget "
            f"of {budget}; linking all of them",
            stacklevel=3,
        )
    if budget == 0 or width == 0:
        return np.zeros(0, dtype=np.intp), score
    # Sorted ascending, a row's budget-th largest score sits at column
    # width - budget. A row with fewer met pairs reads a pad there, or its
    # lowest score when the budget exceeds the width; either way it keeps
    # every met pair, and its pads go with the surplus ties below. The
    # thresholds are copied out, so the partitioned copy of every score
    # goes before the keep mask is built.
    col = max(width - budget, 0)
    kth = np.partition(score, col, axis=1)[:, col].copy()
    keep = score >= kth[:, None]
    # Beyond a row's k, drop the pairs tied at its threshold, the last in
    # pair order first.
    excess = np.count_nonzero(keep, axis=1) - np.minimum(met, budget)
    for r in np.flatnonzero(excess).tolist():
        tied = np.flatnonzero(score[r] == kth[r])
        keep[r, tied[tied.shape[0] - excess[r] :]] = False
    return np.flatnonzero(keep), score


def generate_network(
    population: Population, scenario: Scenario, draws: PairDraws
) -> NetworkSnapshot:
    """Grow a network by scoring the met pairs and keeping the budgeted best.

    `draws` (one row from `pair_draws`) fixes which pairs met and their
    jitter; `keep_pairs` scores the met pairs under
    `scenario.resolved_preference()` and keeps the k = min(budget, met)
    highest-scoring ones, ranked by (score desc, i asc, j asc).
    Kept pairs stay in pair order, so edge rows come out sorted. If fewer
    pairs met than the budget asks for, all of them are linked and a
    shortfall warning is emitted. Edge strength is (score + 2) / 4, an
    order-preserving map into (0, 1] for the typical score range.
    """
    n = population.size
    if n != scenario.node_count:
        raise ValueError(
            f"population size {n} does not match scenario node_count {scenario.node_count}"
        )
    if draws.node_count != n:
        raise ValueError(f"pair draws for {draws.node_count} nodes do not fit {n} nodes")
    if draws.met.shape[0] != 1:
        raise ValueError(f"grows one network, got pair draws of {draws.met.shape[0]} replicates")
    chosen, score = keep_pairs(scenario.resolved_preference(), scenario.edge_budget, draws,
                               *age_code_slots(population.ages, draws))
    gamma = edge_strength(score.take(chosen))
    del score  # the met-pair scores go before the edge arrays are built
    edges = np.empty((chosen.shape[0], 2), dtype=np.int64)
    edges[:, 0] = draws.i.take(chosen)
    edges[:, 1] = draws.j.take(chosen)
    return NetworkSnapshot(n, edges, gamma)


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
    picks: list[int] = []
    for v in range(m, n):
        # Cumulative weights of the nodes still eligible, one uniform per
        # pick; a pick drops its node by taking its weight off its suffix.
        # Every entry is an exact integer in float64, so the bisection
        # lands where a fresh cumulative sum of the remaining weights would.
        weights = degrees[:v].astype(np.float64) if v > m else np.ones(v)
        cumulative = np.cumsum(weights)
        row = []
        for u in stream.random(m).tolist():
            c = int(cumulative.searchsorted(u * cumulative[-1], side="right"))
            row.append(c)
            cumulative[c:] -= weights[c]
        picks.extend(row)
        degrees[row] += 1
        degrees[v] += m
    edges = np.column_stack((np.array(picks, dtype=np.int64), np.repeat(np.arange(m, n), m)))
    order = _sorted_edge_order(edges)
    return NetworkSnapshot(n, edges[order], np.ones(edges.shape[0]))


def save_network(net: NetworkSnapshot, path) -> None:
    """Write an i,j,gamma edge list to `path`."""
    with open(path, "wb") as fh:
        fh.write(b"i,j,gamma\n")
        for s in range(0, net.edge_count, _WRITE_BLOCK):
            fh.write(edge_rows(net.edges[s : s + _WRITE_BLOCK], net.gamma[s : s + _WRITE_BLOCK]))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_edge_list(path) -> NetworkSnapshot:
    """Read an edge list CSV with columns i,j[,gamma]; the first non-empty
    row is a header when its first cell is not a number. Gamma must be
    finite; self-loops, repeated pairs (in either orientation), negative
    ids and ids whose node count would not fit int64 are errors that name
    the line. The node count is max id + 1 (0 with no edges)."""
    rows: list[tuple[int, int, float]] = []
    first_line: dict[tuple[int, int], int] = {}
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
            raise ValueError(f"{path}: line {line}: self-loop {i},{j}")
        if min(i, j) < 0:
            raise ValueError(f"{path}: line {line}: node ids must be non-negative, got {i},{j}")
        if max(i, j) >= _ID_LIMIT:
            raise ValueError(
                f"{path}: line {line}: node id {max(i, j)} too large; ids must be below "
                f"{_ID_LIMIT} for the node count to fit int64"
            )
        if i > j:
            i, j = j, i
        if (i, j) in first_line:
            raise ValueError(
                f"{path}: lines {first_line[i, j]} and {line}: repeated edge {i},{j}"
            )
        first_line[i, j] = line
        rows.append((i, j, g))
    if rows:
        edges = np.array([(i, j) for i, j, _ in rows], dtype=np.int64)
        gamma = np.array([g for _, _, g in rows])
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        gamma = np.zeros(0)
    n = int(edges.max()) + 1 if edges.size else 0
    order = _sorted_edge_order(edges)
    return NetworkSnapshot(n, edges[order], gamma[order])
