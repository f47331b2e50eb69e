"""Age-structured populations and their diversity.

Every node carries a single ascribed feature, its age in years [0, 89],
normalised to [0, 1) for scoring. Ages fall into nine decade groups
(0-9, 10-19, ..., 80-89). A population's age histogram follows one of five
shapes; each shape is a fixed 9-group template at the reference size of 90
nodes, rescaled to other sizes by largest-remainder rounding so the counts
always sum exactly to the population size.

A population is its ages only. The connection preference is the rule's,
and the Scenario holds it (`Scenario.resolved_preference`); it applies to
every node, so the base score of a pair depends only on the two ages
(`age_pair_scores`), which is how `netgen` scores each age pair in use
once. `make_population` is the only code that draws a scenario's ages.

Diversity of the group histogram is measured with Hill numbers: order q = 0
counts occupied groups, q = 1 is the exponential of Shannon entropy, and
larger q weighs dominant groups more heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .scenario import AgeShape, Preference, RngPolicy, Scenario

GROUP_COUNT = 9
GROUP_WIDTH = 10
AGE_SPAN = GROUP_COUNT * GROUP_WIDTH  # 90, also the feature normaliser
REFERENCE_SIZE = 90

# Decade-group count templates at the reference size of 90 nodes.
# Uniform: flat. Bell: symmetric, peaked in the 40s. InverseBell: symmetric,
# thinnest in the 40s. LeftSkewed: mass pushed to old age groups (left-leaning
# histogram tail); RightSkewed is its mirror image.
SHAPE_TEMPLATES: dict[AgeShape, tuple[int, ...]] = {
    AgeShape.UNIFORM: (10, 10, 10, 10, 10, 10, 10, 10, 10),
    AgeShape.BELL: (3, 6, 10, 15, 22, 15, 10, 6, 3),
    AgeShape.INVERSE_BELL: (16, 13, 9, 5, 4, 5, 9, 13, 16),
    AgeShape.LEFT_SKEWED: (1, 2, 3, 5, 8, 11, 15, 20, 25),
    AgeShape.RIGHT_SKEWED: (25, 20, 15, 11, 8, 5, 3, 2, 1),
}


def group_counts(shape: AgeShape, node_count: int) -> np.ndarray:
    """Number of nodes per decade group, always summing to node_count.

    The shape template is scaled by node_count / 90 and rounded by largest
    remainder (ties go to the younger group), so scaling is deterministic
    and exact; at node_count = 90 the template is returned unchanged.
    """
    if node_count < 0:
        raise ValueError(f"node_count must be non-negative, got {node_count}")
    template = np.array(SHAPE_TEMPLATES[shape], dtype=np.int64)
    # Integer arithmetic keeps the tie rule exact: quota = t*n/90, compared
    # by numerator so equal fractional parts never split on float rounding.
    scaled = template * node_count
    counts = scaled // REFERENCE_SIZE
    remainder = int(node_count - counts.sum())
    # Largest fractional parts win the leftover slots; ties to lower index.
    order = np.lexsort((np.arange(GROUP_COUNT), -(scaled % REFERENCE_SIZE)))
    counts[order[:remainder]] += 1
    return counts


def sample_ages(counts: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Draw an integer age for every node, uniform within its decade group.

    Nodes are numbered group by group (all group-0 nodes first), so the
    mapping from node id to group is deterministic given the counts.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (GROUP_COUNT,):
        raise ValueError(f"expected {GROUP_COUNT} group counts, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("group counts must be non-negative")
    parts = [
        g * GROUP_WIDTH + stream.integers(0, GROUP_WIDTH, size=n) for g, n in enumerate(counts)
    ]
    return np.concatenate(parts).astype(np.int64)


def age_pair_scores(preference: Preference, age_a, age_b) -> np.ndarray:
    """Base score of pairs of nodes aged age_a and age_b (integer years,
    broadcast against each other), before each pair's jitter is added.

    With f = age / 90, the score averages a level term,
    (f_b * A + f_a * A) / 2 + 1 with A = level * level_weight (each side
    rates the other's feature value), and a difference term,
    (|f_a - f_b| * B + |f_a - f_b| * B) / 2 + 1 with B = difference *
    difference_weight (each side rates the gap). Both terms are centred
    at 1, so a zero weight makes that half indifferent rather than hostile.
    """
    # Each side's term is kept apart, as in the per-pair formula, so that
    # these scores equal per-pair scores bit for bit.
    f_a, f_b = np.divide(age_a, AGE_SPAN), np.divide(age_b, AGE_SPAN)
    a = preference.level * preference.level_weight
    b = preference.difference * preference.difference_weight
    level_term = (f_b * a + f_a * a) / 2 + 1.0
    gap = np.abs(f_a - f_b)
    diff_term = (gap * b + gap * b) / 2 + 1.0
    return 0.5 * level_term + 0.5 * diff_term


@dataclass
class Population:
    """Nodes with ages in integer years, node v aged ages[v]."""

    ages: np.ndarray

    def __post_init__(self) -> None:
        self.ages = np.asarray(self.ages, dtype=np.int64)
        if (self.ages < 0).any() or (self.ages >= AGE_SPAN).any():
            raise ValueError(f"ages must lie in [0, {AGE_SPAN})")

    @property
    def size(self) -> int:
        return int(self.ages.shape[0])

    @property
    def groups(self) -> np.ndarray:
        return self.ages // GROUP_WIDTH


def make_population(scenario: Scenario) -> Population:
    """Draw the scenario's population: the group counts of its age shape at
    its node count, and each node's age from its "feature-gen" stream."""
    counts = group_counts(scenario.age_shape, scenario.node_count)
    return Population(sample_ages(counts, RngPolicy(scenario.master_seed).stream("feature-gen")))


def hill_number(counts, q: float) -> float:
    """Diversity of order q of a count (or proportion) vector.

    q = 0 counts the occupied classes, q = 1 is exp(Shannon entropy), and
    q = inf is 1 / max proportion, the limit of large q. Zeros are ignored;
    the vector must contain at least one positive entry and q must be >= 0.

    Other orders are computed relative to the largest proportion p_max:
    D_q = exp(-log1p(sum p (r^(q-1) - 1)) / (q - 1)) / p_max with
    r = p / p_max <= 1, whose limit at q = 1 is exp(-sum p log r) / p_max.
    Every term of the sum has the sign of 1 - q, so nothing cancels near
    q = 1, and the sum stays above p_max - 1 > -1, so D_q stays finite
    for large q.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if math.isnan(q):
        raise ValueError("diversity order q must be a number, got nan")
    if q < 0:
        raise ValueError(f"diversity order q must be non-negative, got {q}")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("counts must contain at least one positive entry")
    p = counts[counts > 0] / total
    if q == 0:
        return float(p.size)
    p_max = p.max()
    if q == math.inf:
        return float(1.0 / p_max)
    log_r = np.log(p / p_max)
    if q == 1:
        rate = (p * log_r).sum()
    else:
        rate = math.log1p((p * np.expm1((q - 1.0) * log_r)).sum()) / (q - 1.0)
    return float(math.exp(-rate) / p_max)


def hill_profile(counts, orders) -> np.ndarray:
    """hill_number evaluated at each order in `orders`."""
    return np.array([hill_number(counts, q) for q in orders])


def population_to_csv(population: Population, path) -> None:
    """Write node_id, age, group rows (deterministic byte-for-byte)."""
    rows = zip(range(population.size), population.ages.tolist(), population.groups.tolist())
    write_csv(path, ["node_id", "age", "group"], rows)
