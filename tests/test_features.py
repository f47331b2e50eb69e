"""Age templates, population sampling and Hill diversity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefnet.features import (
    AGE_SPAN,
    GROUP_COUNT,
    group_counts,
    hill_number,
    hill_profile,
    make_population,
    Population,
    sample_ages,
    SHAPE_TEMPLATES,
)
from prefnet.scenario import AgeShape, Preference, RngPolicy, Rule, Scenario


def test_templates_sum_to_reference_size():
    for shape, template in SHAPE_TEMPLATES.items():
        assert len(template) == GROUP_COUNT
        assert sum(template) == 90, shape


def test_uniform_template_flat():
    assert SHAPE_TEMPLATES[AgeShape.UNIFORM] == (10,) * 9


def test_bell_template_unimodal_peak_in_forties():
    t = SHAPE_TEMPLATES[AgeShape.BELL]
    peak = t.index(max(t))
    assert peak == 4  # ages 40-49
    assert all(t[i] < t[i + 1] for i in range(peak))
    assert all(t[i] > t[i + 1] for i in range(peak, GROUP_COUNT - 1))


def test_inverse_bell_template_thinnest_in_forties():
    t = SHAPE_TEMPLATES[AgeShape.INVERSE_BELL]
    assert min(t) == t[4]
    assert all(t[4] < t[i] for i in range(GROUP_COUNT) if i != 4)


def test_skewed_templates_monotone_and_mirrored():
    left = SHAPE_TEMPLATES[AgeShape.LEFT_SKEWED]
    right = SHAPE_TEMPLATES[AgeShape.RIGHT_SKEWED]
    assert all(left[i] < left[i + 1] for i in range(GROUP_COUNT - 1))
    assert all(right[i] > right[i + 1] for i in range(GROUP_COUNT - 1))
    assert left == right[::-1]
    # left-skewed places most of its mass in the 50+ groups
    assert sum(left[5:]) > sum(left[:5])


def test_group_counts_reference_size_returns_template():
    for shape, template in SHAPE_TEMPLATES.items():
        assert tuple(group_counts(shape, 90)) == template


def _largest_remainder_oracle(template, node_count):
    """Independent rounding oracle in exact rational arithmetic."""
    quotas = [Fraction(t * node_count, 90) for t in template]
    base = [int(q) for q in quotas]  # floor for non-negative quotas
    leftovers = node_count - sum(base)
    order = sorted(range(len(template)), key=lambda g: (-(quotas[g] - base[g]), g))
    for g in order[:leftovers]:
        base[g] += 1
    return base


@pytest.mark.parametrize("node_count", [9, 18, 30, 45, 77, 90, 91, 100, 180, 333])
def test_group_counts_match_exact_rounding_oracle(node_count):
    for shape, template in SHAPE_TEMPLATES.items():
        counts = group_counts(shape, node_count)
        assert counts.sum() == node_count
        assert list(counts) == _largest_remainder_oracle(template, node_count), (
            shape,
            node_count,
        )


def test_group_counts_rejects_negative():
    with pytest.raises(ValueError):
        group_counts(AgeShape.UNIFORM, -1)


def test_sample_ages_respects_groups():
    counts = group_counts(AgeShape.BELL, 90)
    ages = sample_ages(counts, RngPolicy(5).stream("feature-gen"))
    assert ages.shape == (90,)
    assert ages.min() >= 0 and ages.max() < AGE_SPAN
    got = np.bincount(ages // 10, minlength=GROUP_COUNT)
    assert np.array_equal(got, counts)
    # nodes are numbered group by group, so group ids are non-decreasing
    assert (np.diff(ages // 10) >= 0).all()


def test_sample_ages_deterministic():
    counts = group_counts(AgeShape.UNIFORM, 90)
    a = sample_ages(counts, RngPolicy(1).stream("feature-gen"))
    b = sample_ages(counts, RngPolicy(1).stream("feature-gen"))
    c = sample_ages(counts, RngPolicy(2).stream("feature-gen"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_ages_draws_nothing_for_empty_groups():
    # An empty group draws nothing and leaves the stream where it was, so
    # the ages equal a draw of only the non-empty groups.
    counts = np.array([0, 3, 0, 0, 2, 0, 0, 0, 4])
    stream = RngPolicy(3).stream("feature-gen")
    want = [g * 10 + stream.integers(0, 10, size=n) for g, n in enumerate(counts) if n]
    ages = sample_ages(counts, RngPolicy(3).stream("feature-gen"))
    assert ages.dtype == np.int64 and np.array_equal(ages, np.concatenate(want))
    stream = RngPolicy(3).stream("feature-gen")
    none = sample_ages(np.zeros(GROUP_COUNT, dtype=np.int64), stream)
    assert none.dtype == np.int64 and none.shape == (0,)
    assert stream.integers(0, 10) == RngPolicy(3).stream("feature-gen").integers(0, 10)


def test_population_features_and_groups():
    # the scenario fixes the shape, the size and the "feature-gen" stream;
    # its rule and preference do not touch the ages
    for shape in AgeShape:
        sc = Scenario(node_count=47, edge_budget=30, age_shape=shape, master_seed=9)
        pop = make_population(sc)
        counts = group_counts(shape, 47)
        assert pop.size == 47
        assert np.array_equal(pop.ages, sample_ages(counts, RngPolicy(9).stream("feature-gen")))
        assert np.array_equal(pop.groups, pop.ages // 10)
        assert np.array_equal(np.bincount(pop.groups, minlength=GROUP_COUNT), counts)
        pure = sc.with_overrides(rule=Rule.H_MINUS, preference=Preference(1, 0.5, -1, 0.25))
        assert np.array_equal(make_population(pure).ages, pop.ages)
        reseeded = sc.with_overrides(master_seed=10)
        assert not np.array_equal(make_population(reseeded).ages, pop.ages)


def test_population_rejects_out_of_range_ages():
    with pytest.raises(ValueError):
        Population(np.array([10, 95]))


def test_hill_q0_counts_occupied_groups():
    for shape, template in SHAPE_TEMPLATES.items():
        assert hill_number(template, 0) == 9.0
    assert hill_number([5, 0, 3], 0) == 2.0


def test_hill_uniform_is_group_count_at_every_order():
    for q in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        assert hill_number([10] * 9, q) == pytest.approx(9.0, abs=1e-12)


def test_hill_hand_value():
    # proportions (1/6, 2/6, 3/6): sum of squares = 14/36, inverse = 36/14
    assert hill_number([1, 2, 3], 2) == pytest.approx(36 / 14, abs=1e-12)


def test_hill_q1_matches_shannon():
    counts = [4, 1, 7, 2]
    p = np.array(counts) / sum(counts)
    expected = math.exp(-sum(pi * math.log(pi) for pi in p))
    assert hill_number(counts, 1) == pytest.approx(expected, abs=1e-12)


def test_hill_continuous_at_one():
    counts = [3, 6, 10, 15, 22, 15, 10, 6, 3]
    center = hill_number(counts, 1)
    assert abs(hill_number(counts, 1 - 1e-6) - center) < 1e-4
    assert abs(hill_number(counts, 1 + 1e-6) - center) < 1e-4


def test_hill_scale_invariant():
    counts = [1, 2, 3, 5, 8, 11, 15, 20, 25]
    for q in (0, 0.5, 1, 2):
        assert hill_number(counts, q) == pytest.approx(
            hill_number([10 * c for c in counts], q), abs=1e-12
        )


def test_hill_q2_ordering_of_templates():
    # frozen from the squared-count sums: 8100/900, 8100/1078, 8100/1224, 8100/1474
    values = {
        AgeShape.UNIFORM: 9.0,
        AgeShape.INVERSE_BELL: 8100 / 1078,
        AgeShape.BELL: 8100 / 1224,
        AgeShape.LEFT_SKEWED: 8100 / 1474,
        AgeShape.RIGHT_SKEWED: 8100 / 1474,
    }
    for shape, expected in values.items():
        assert hill_number(SHAPE_TEMPLATES[shape], 2) == pytest.approx(expected, abs=1e-12)
    u, i, b, l = (
        values[AgeShape.UNIFORM],
        values[AgeShape.INVERSE_BELL],
        values[AgeShape.BELL],
        values[AgeShape.LEFT_SKEWED],
    )
    assert u >= i >= b >= l


def test_hill_large_and_infinite_orders():
    # 1 / max p: with rescaling a large order no longer overflows to inf
    for q in (500, 1e6, math.inf):
        assert hill_number([10] * 9, q) == pytest.approx(9.0, abs=1e-12)
    assert hill_number([1, 2, 3], math.inf) == 2.0
    with pytest.raises(ValueError, match="q"):
        hill_number([1, 2, 3], math.nan)


_ORDERS = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False),
    st.floats(0.99, 1.01),
    st.just(math.inf),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=12).filter(any),
    st.lists(_ORDERS, min_size=2, max_size=6),
)
def test_hill_bounded_and_non_increasing_in_order(counts, orders):
    p_max = max(counts) / sum(counts)
    occupied = sum(1 for c in counts if c)
    values = [hill_number(counts, q) for q in sorted(orders)]
    for value in values:
        assert math.isfinite(value)
        assert 1.0 / p_max * (1 - 1e-12) <= value <= occupied * (1 + 1e-12)
    for a, b in zip(values, values[1:]):
        assert b <= a * (1 + 1e-12)


def test_hill_profile_shape():
    qs = [0, 1, 2]
    out = hill_profile([10] * 9, qs)
    assert out.shape == (3,)
    assert np.allclose(out, 9.0)


def test_hill_errors():
    with pytest.raises(ValueError):
        hill_number([1, 2], -0.5)
    with pytest.raises(ValueError):
        hill_number([0, 0, 0], 1)
    with pytest.raises(ValueError):
        hill_number([2, -1], 1)
