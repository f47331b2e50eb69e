"""Objective evaluation and the two-phase weight search."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from prefnet import netgen, optimizer
from prefnet.features import group_counts, make_population, sample_ages
from prefnet.netgen import age_code_slots, ba_target, generate_network, pair_draws
from prefnet.netmetrics import degree_distribution, js_divergence, PatternDistribution
from prefnet.optimizer import (
    evaluate,
    LEVEL_GRID,
    log_to_csv,
    optimize,
    replicate_draws,
    result_to_json,
    WEIGHT_GRID,
)
from prefnet.scenario import (
    AgeShape,
    PH_FITTED,
    Preference,
    RngPolicy,
    Rule,
    RULE_PREFERENCES,
    Scenario,
)

# a smaller arena than the default keeps the search tests quick
SMALL = Scenario(node_count=45, edge_budget=350, master_seed=0)


def _small_target():
    return degree_distribution(ba_target(45, 10, RngPolicy(0).stream("optimizer", 0)))


def test_weight_grid_includes_pure_rule_weights():
    assert 0.0 in WEIGHT_GRID and 1.0 in WEIGHT_GRID
    assert LEVEL_GRID == (-1, 0, 1)


def test_evaluate_deterministic_common_random_numbers():
    target = _small_target()
    pref = Preference(-1, 0.05, 1, 0.08)
    mean_a, values_a = evaluate(pref, replicate_draws(SMALL, 3, target))
    mean_b, values_b = evaluate(pref, replicate_draws(SMALL, 3, target))
    assert values_a == values_b
    assert mean_a == pytest.approx(np.mean(values_a), abs=1e-12)
    assert len(values_a) == 3


def test_evaluate_zero_against_own_degree_pattern():
    # replicate 0 of evaluate() regenerates exactly the pipeline network,
    # so scoring a preference against its own pattern gives divergence 0
    pref = Preference(1, 0.0, -1, 1.0)
    net = generate_network(make_population(SMALL), SMALL.with_overrides(preference=pref),
                           pair_draws(SMALL))
    target = degree_distribution(net)
    _, values = evaluate(pref, replicate_draws(SMALL, 1, target))
    assert values[0] == 0.0


def test_evaluate_validation():
    target = _small_target()
    clustering = PatternDistribution("clustering", [0], [1.0])
    with pytest.raises(ValueError, match="cannot compare 'degree' with 'clustering'"):
        replicate_draws(SMALL, 1, clustering)
    with pytest.raises(ValueError):
        replicate_draws(SMALL, 0, target)


def _kernel_case(n, budget, rate, sigma, shape, seed, preference, target_n, replicates):
    """A scenario, preference, target (a scale-free network's degree
    pattern on target_n nodes) and replicate count for evaluate()."""
    scenario = Scenario(node_count=n, edge_budget=budget, encounter_rate=rate,
                        noise_sigma=sigma, age_shape=shape, master_seed=seed)
    target = degree_distribution(
        ba_target(target_n, max(1, target_n // 4), RngPolicy(seed).stream("optimizer", 0))
    )
    return scenario, preference, target, replicates


_LEVEL = st.sampled_from([-1, 0, 1])
_WEIGHT = st.one_of(st.sampled_from([0.0, -0.0, 0.02, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(2, 40))
    pairs = n * (n - 1) // 2
    return _kernel_case(
        n,
        draw(st.one_of(st.just(0), st.just(pairs), st.integers(0, pairs))),
        draw(st.sampled_from([0.3, 0.8, 1.0])),
        draw(st.sampled_from([0.0, 0.005, 0.05])),
        draw(st.sampled_from(list(AgeShape))),
        draw(st.integers(0, 2**32)),
        Preference(draw(_LEVEL), draw(_WEIGHT), draw(_LEVEL), draw(_WEIGHT)),
        draw(st.integers(2, 60)),
        draw(st.integers(1, 3)),
    )


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
# no jitter: every score ties with many others
@example(_kernel_case(40, 300, 0.8, 0.0, AgeShape.UNIFORM, 1, Preference(1, 0.5, 0, 0.0), 40, 2))
# a budget above every replicate's met count
@example(_kernel_case(30, 435, 0.3, 0.005, AgeShape.BELL, 2, Preference(0, 0.0, 1, 1.0), 30, 3))
# some replicates fall short of the budget, others do not
@example(_kernel_case(24, 100, 0.35, 0.005, AgeShape.UNIFORM, 0,
                      Preference(-1, 0.3, 1, 0.1), 24, 4))
# no edge budget
@example(_kernel_case(30, 0, 0.8, 0.005, AgeShape.BELL, 5, Preference(1, 1.0, -1, 0.25), 30, 3))
# no pair meets in any replicate
@example(_kernel_case(12, 20, 0.0, 0.005, AgeShape.INVERSE_BELL, 6,
                      Preference(1, 0.5, 1, 0.5), 12, 2))
# no jitter and three replicates: ties straddle the k-th score in several rows
@example(_kernel_case(40, 300, 0.8, 0.0, AgeShape.BELL, 7, Preference(0, 0.0, -1, 1.0), 40, 3))
# a target on more, and on fewer, nodes than the grown networks
@example(_kernel_case(20, 60, 0.8, 0.005, AgeShape.LEFT_SKEWED, 3,
                      RULE_PREFERENCES[Rule.H_MINUS], 55, 2))
@example(_kernel_case(40, 200, 0.8, 0.005, AgeShape.RIGHT_SKEWED, 4,
                      RULE_PREFERENCES[Rule.P_PLUS], 9, 2))
def test_evaluate_equals_the_network_pipeline(case):
    scenario, pref, target, replicates = case
    draws = replicate_draws(scenario, replicates, target)
    population, fitted = make_population(scenario), scenario.with_overrides(preference=pref)
    pairs = pair_draws(scenario, replicates)
    networks = [oracles.draws_row(pairs, r) for r in range(replicates)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mean, values = evaluate(pref, draws)
        expected = [
            js_divergence(degree_distribution(generate_network(population, fitted, d)), target)
            for d in networks
        ]
        reference = oracles.evaluate(pref, target, scenario, replicates)
    short = int((pairs.met < scenario.edge_budget).sum())
    # evaluate warns of each shortfall as generate_network does, at the caller
    assert len(caught) == 2 * short
    assert [str(w.message) for w in caught[:short]] == [str(w.message) for w in caught[short:]]
    assert all(w.filename == __file__ for w in caught)
    assert _bits(values) == _bits(expected) == _bits(reference)
    assert all(type(v) is float for v in values)
    assert mean == float(np.mean(expected))

    # a preference with the same effective weights (a, b) scores the same
    def twin(level, weight):
        if level * weight != 0:
            return level, weight
        return (1, 0.0) if level == 0 else (0, 1.0)

    other = Preference(*twin(pref.level, pref.level_weight),
                       *twin(pref.difference, pref.difference_weight))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _bits(evaluate(other, draws)[1]) == _bits(values)


# Mean JS over 5 replicates against ba:90,20 at seed 0 of each shape's PH
# preset and of the best pure rule, as the PH_FITTED comment states them.
PH_PRESET_CLAIM = {
    AgeShape.UNIFORM: (0.228, Rule.H_PLUS, 0.209),
    AgeShape.BELL: (0.239, Rule.H_PLUS, 0.221),
    AgeShape.INVERSE_BELL: (0.406, Rule.H_MINUS, 0.365),
    AgeShape.LEFT_SKEWED: (0.426, Rule.H_PLUS, 0.310),
    AgeShape.RIGHT_SKEWED: (0.278, Rule.H_PLUS, 0.273),
}


@pytest.mark.parametrize("shape", list(AgeShape), ids=lambda s: s.value)
def test_ph_preset_loses_to_a_pure_rule_of_its_shape(shape):
    preset_js, best_rule, best_js = PH_PRESET_CLAIM[shape]
    scenario = Scenario(age_shape=shape)
    target = degree_distribution(ba_target(90, 20, RngPolicy(0).stream("optimizer", 0)))
    draws = replicate_draws(scenario, 5, target)
    preset, _ = evaluate(PH_FITTED[shape], draws)
    pure = {rule: evaluate(pref, draws)[0]
            for rule, pref in RULE_PREFERENCES.items()}
    assert round(preset, 3) == preset_js
    assert min(pure, key=pure.get) is best_rule
    assert round(pure[best_rule], 3) == best_js
    assert pure[best_rule] < preset


def test_optimize_budget_validation():
    with pytest.raises(ValueError):
        optimize(replicate_draws(SMALL, 1, _small_target()), budget=0)
    with pytest.raises(ValueError):
        replicate_draws(SMALL, 0, _small_target())


def test_optimize_draws_once_and_grows_once_per_replicate(monkeypatch):
    # evaluate() grows one network per replicate, so the search grows each
    # distinct effective preference once per replicate, from the draws it
    # is given, drawn for all replicates at once with the target padded
    # once; the search itself draws nothing
    built, made, evaluations, unions, padded = [], [], [], [], []

    def counting(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer, "pair_draws", counting(optimizer.pair_draws, built))
    monkeypatch.setattr(optimizer, "evaluate", counting(optimizer.evaluate, evaluations))
    monkeypatch.setattr(optimizer, "support_union", counting(optimizer.support_union, unions))
    monkeypatch.setattr(optimizer, "pad_mass", counting(optimizer.pad_mass, padded))
    draws = replicate_draws(SMALL, 3, _small_target())
    assert len(built) == 1 and built[0][1] == 3
    assert len(unions) == len(padded) == 1
    monkeypatch.setattr(optimizer, "replicate_draws", counting(optimizer.replicate_draws, made))
    result = optimize(draws, budget=12)
    assert made == [] and len(built) == len(unions) == len(padded) == 1
    # the first 12 grid candidates are level -1 at weight 0 with difference
    # -1 at all 7 weights, then difference 0 at 5 weights: 7 distinct (a, b)
    effective = {(p.level * p.level_weight, p.difference * p.difference_weight)
                 for p, *_ in evaluations}
    assert len(evaluations) == len(effective) == 7
    assert all(args[1] is draws for args in evaluations)
    # one record per spent evaluation; candidates that share (a, b) share
    # one tuple of its replicate values
    assert len(result.log) == 12
    assert all(type(rec.js) is tuple and len(rec.js) == 3 for rec in result.log)
    by_effective = {}
    for rec in result.log:
        p = rec.preference
        key = (p.level * p.level_weight, p.difference * p.difference_weight)
        assert by_effective.setdefault(key, rec.js) is rec.js
    assert len(by_effective) == 7


@pytest.mark.parametrize("population_ages", [False, True])
def test_evaluate_builds_score_table_once(monkeypatch, population_ages):
    # one call grows all replicates through one netgen kernel call, which
    # scores the age codes the replicates' met pairs use, once each, and
    # runs one top-k over all replicates; the codes are those of the ages
    # make_population draws, which come from the "feature-gen" stream
    grown, scored, ranked = [], [], []
    kernel = optimizer.keep_pairs
    monkeypatch.setattr(optimizer, "keep_pairs",
                        lambda *args: grown.append(args) or kernel(*args))
    score = netgen.age_pair_scores
    monkeypatch.setattr(netgen, "age_pair_scores",
                        lambda p, a, b: scored.append((p, a, b)) or score(p, a, b))
    partition = np.partition
    monkeypatch.setattr(netgen.np, "partition",
                        lambda *args, **kw: ranked.append(args) or partition(*args, **kw))
    pref = Preference(-1, 0.05, 1, 0.08)
    draws = replicate_draws(SMALL, 4, _small_target())
    _, values = evaluate(pref, draws)
    assert len(values) == 4
    assert len(grown) == len(scored) == len(ranked) == 1 and scored[0][0] == pref
    assert grown[0][2] is draws.pairs and ranked[0][0].shape == draws.slot.shape
    pairs = pair_draws(SMALL, 4)
    if population_ages:
        ages = make_population(SMALL).ages
        code_ages, slot = age_code_slots(ages, pairs)
        assert all(np.array_equal(a, b) for a, b in zip(code_ages, draws.code_ages))
        assert slot.tobytes() == draws.slot.tobytes()
    else:
        stream = RngPolicy(SMALL.master_seed).stream("feature-gen")
        ages = sample_ages(group_counts(SMALL.age_shape, SMALL.node_count), stream)
    codes = set()
    for r in range(4):
        d = oracles.draws_row(pairs, r)
        codes.update((ages[d.i[0]] * 90 + ages[d.j[0]]).tolist())
    used = scored[0][1] * 90 + scored[0][2]
    assert used.tolist() == sorted(codes)


def test_optimize_budget_one_single_evaluation():
    target = _small_target()
    result = optimize(replicate_draws(SMALL, 3, target), budget=1)
    assert len(result.log) == 1
    assert len(result.log[0].js) == 3  # one value per replicate
    first = Preference(LEVEL_GRID[0], WEIGHT_GRID[0], LEVEL_GRID[0], WEIGHT_GRID[0])
    assert result.best == result.log[0].preference == first


def test_optimize_rerun_is_identical():
    target = _small_target()
    a = optimize(replicate_draws(SMALL, 2, target), budget=30)
    b = optimize(replicate_draws(SMALL, 2, target), budget=30)
    assert a == b
    assert len(a.log) == 30


def test_optimize_objective_matches_log_minimum():
    target = _small_target()
    result = optimize(replicate_draws(SMALL, 2, target), budget=60)
    by_candidate = {}
    for rec in result.log:
        assert rec.preference not in by_candidate and len(rec.js) == 2
        by_candidate[rec.preference] = rec.js
    means = {k: np.mean(v) for k, v in by_candidate.items()}
    assert result.objective == pytest.approx(min(means.values()), abs=1e-12)
    assert result.objective_std == float(np.std(by_candidate[result.best]))


def test_optimize_logs_what_evaluate_gives_each_candidate():
    # results shared between candidates with equal effective weights are
    # the ones evaluate() gives each of them
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    draws = replicate_draws(SMALL, 2, target)
    result = optimize(draws, budget=full_grid)
    assert len(result.log) == full_grid
    for rec in result.log:
        assert _bits(rec.js) == _bits(evaluate(rec.preference, draws)[1])


def test_optimize_dominates_pure_rules():
    # the coarse grid contains every pure rule, so under shared streams the
    # winner can never score worse than any of them
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    result = optimize(replicate_draws(SMALL, 2, target), budget=full_grid)
    assert len(result.log) == full_grid
    for pref in RULE_PREFERENCES.values():
        mean, _ = evaluate(pref, replicate_draws(SMALL, 2, target))
        assert result.objective <= mean + 1e-12


def test_optimize_refinement_never_hurts():
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    draws = replicate_draws(SMALL, 2, target)
    grid_only = optimize(draws, budget=full_grid)
    refined = optimize(draws, budget=full_grid + 40)
    assert refined.objective <= grid_only.objective + 1e-12
    assert len(refined.log) <= full_grid + 40
    # refinement keeps weights inside [0, 1]
    for rec in refined.log:
        assert 0.0 <= rec.preference.level_weight <= 1.0
        assert 0.0 <= rec.preference.difference_weight <= 1.0


def test_optimize_log_round_trip(tmp_path):
    target = _small_target()
    result = optimize(replicate_draws(SMALL, 2, target), budget=5)
    log_path = tmp_path / "log.csv"
    log_to_csv(result.log, log_path)
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "level,level_weight,difference,difference_weight,replicate,js"
    assert len(lines) == 1 + 2 * len(result.log)
    json_path = tmp_path / "best.json"
    result_to_json(result, json_path)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["evaluations"] == len(result.log) == 5
    assert payload["replicates"] == 2
    assert payload["best"]["level"] == result.best.level


def test_eval_log_writes_one_row_per_replicate_of_a_refined_fit(tmp_path):
    # a budget beyond the grid reaches the refinement, whose weights are
    # not grid values; the log file holds one row per (record, replicate)
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    result = optimize(replicate_draws(SMALL, 2, target), budget=full_grid + 20)
    assert len(result.log) > full_grid
    path = tmp_path / "eval_log.csv"
    log_to_csv(result.log, path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["level", "level_weight", "difference", "difference_weight", "replicate", "js"])
    for rec in result.log:
        p = rec.preference
        for r, v in enumerate(rec.js):
            writer.writerow([p.level, repr(p.level_weight), p.difference,
                             repr(p.difference_weight), r, repr(v)])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
