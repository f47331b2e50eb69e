"""Objective evaluation and the two-phase weight search."""

import numpy as np
import pytest

from prefnet import features, optimizer
from prefnet.features import make_population
from prefnet.netgen import ba_target, generate_network, pair_draws
from prefnet.netmetrics import degree_distribution
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
    Preference,
    RngPolicy,
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
    mean_a, values_a = evaluate(pref, target, SMALL, replicate_draws(SMALL, 3))
    mean_b, values_b = evaluate(pref, target, SMALL, replicate_draws(SMALL, 3))
    assert values_a == values_b
    assert mean_a == pytest.approx(np.mean(values_a), abs=1e-12)
    assert len(values_a) == 3


def test_evaluate_zero_against_own_degree_pattern():
    # replicate 0 of evaluate() regenerates exactly the pipeline network,
    # so scoring a preference against its own pattern gives divergence 0
    pref = Preference(1, 0.0, -1, 1.0)
    policy = RngPolicy(SMALL.master_seed)
    pop = make_population(SMALL.age_shape, SMALL.node_count, pref,
                          policy.stream("feature-gen"))
    draws = pair_draws(SMALL, policy.stream("encounter", 0), policy.stream("noise", 0))
    net = generate_network(pop, SMALL, draws)
    target = degree_distribution(net)
    _, values = evaluate(pref, target, SMALL, replicate_draws(SMALL, 1))
    assert values[0] == 0.0


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate(Preference(1, 1.0, 1, 0.0), _small_target(), SMALL, [])
    with pytest.raises(ValueError):
        replicate_draws(SMALL, 0)


def test_optimize_budget_validation():
    with pytest.raises(ValueError):
        optimize(SMALL, _small_target(), budget=0)
    with pytest.raises(ValueError):
        optimize(SMALL, _small_target(), budget=10, replicates=0)


def test_optimize_draws_once_and_grows_once_per_replicate(monkeypatch):
    built, grown, evaluations = [], [], []

    def counting(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer, "pair_draws", counting(optimizer.pair_draws, built))
    monkeypatch.setattr(optimizer, "generate_network",
                        counting(optimizer.generate_network, grown))
    monkeypatch.setattr(optimizer, "evaluate", counting(optimizer.evaluate, evaluations))
    runtimes = {}
    result = optimize(SMALL, _small_target(), budget=12, replicates=3, runtimes=runtimes)
    assert len(built) == 3
    assert len(evaluations) == result.evaluations == 12
    assert len(grown) == 12 * 3
    # every evaluation grows replicate r from the same draws
    draws = [d for _, _, d in grown]
    assert all(draws[e * 3 + r] is draws[r] for e in range(12) for r in range(3))
    assert sorted(runtimes) == ["draws", "search"]
    assert all(v >= 0 for v in runtimes.values())


@pytest.mark.parametrize("pass_ages", [False, True])
def test_evaluate_builds_score_table_once(monkeypatch, pass_ages):
    built = []
    build = features.pair_score_table
    monkeypatch.setattr(features, "pair_score_table", lambda p: built.append(p) or build(p))
    pref = Preference(-1, 0.05, 1, 0.08)
    ages = make_population(SMALL.age_shape, SMALL.node_count, pref,
                           RngPolicy(SMALL.master_seed).stream("feature-gen")).ages
    _, values = evaluate(pref, _small_target(), SMALL, replicate_draws(SMALL, 4),
                         ages=ages if pass_ages else None)
    assert len(values) == 4
    assert built == [pref]


def test_optimize_budget_one_single_evaluation():
    target = _small_target()
    result = optimize(SMALL, target, budget=1, replicates=3)
    assert result.evaluations == 1
    assert len(result.log) == 3  # one row per replicate
    first = Preference(LEVEL_GRID[0], WEIGHT_GRID[0], LEVEL_GRID[0], WEIGHT_GRID[0])
    assert result.best.preference == first


def test_optimize_rerun_is_identical():
    target = _small_target()
    a = optimize(SMALL, target, budget=30, replicates=2)
    b = optimize(SMALL, target, budget=30, replicates=2)
    assert a.log == b.log
    assert a.best == b.best
    assert a.evaluations == b.evaluations == 30


def test_optimize_objective_matches_log_minimum():
    target = _small_target()
    result = optimize(SMALL, target, budget=60, replicates=2)
    by_candidate = {}
    for rec in result.log:
        key = (rec.level, rec.level_weight, rec.difference, rec.difference_weight)
        by_candidate.setdefault(key, []).append(rec.js)
    means = {k: np.mean(v) for k, v in by_candidate.items()}
    assert result.best.objective == pytest.approx(min(means.values()), abs=1e-12)


def test_optimize_dominates_pure_rules():
    # the coarse grid contains every pure rule, so under shared streams the
    # winner can never score worse than any of them
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    result = optimize(SMALL, target, budget=full_grid, replicates=2)
    assert result.evaluations == full_grid
    for pref in RULE_PREFERENCES.values():
        mean, _ = evaluate(pref, target, SMALL, replicate_draws(SMALL, 2))
        assert result.best.objective <= mean + 1e-12


def test_optimize_refinement_never_hurts():
    target = _small_target()
    full_grid = len(LEVEL_GRID) ** 2 * len(WEIGHT_GRID) ** 2
    grid_only = optimize(SMALL, target, budget=full_grid, replicates=2)
    refined = optimize(SMALL, target, budget=full_grid + 40, replicates=2)
    assert refined.best.objective <= grid_only.best.objective + 1e-12
    assert refined.evaluations <= full_grid + 40
    # refinement keeps weights inside [0, 1]
    for rec in refined.log:
        assert 0.0 <= rec.level_weight <= 1.0
        assert 0.0 <= rec.difference_weight <= 1.0


def test_optimize_log_round_trip(tmp_path):
    target = _small_target()
    result = optimize(SMALL, target, budget=5, replicates=2)
    log_path = tmp_path / "log.csv"
    log_to_csv(result.log, log_path)
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "level,level_weight,difference,difference_weight,replicate,js"
    assert len(lines) == 1 + len(result.log)
    json_path = tmp_path / "best.json"
    result_to_json(result, json_path)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["evaluations"] == result.evaluations
    assert payload["best"]["level"] == result.best.preference.level
