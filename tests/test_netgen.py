"""Pair scoring, budgeted growth and the scale-free target."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefnet import artifacts, cli, netgen
from prefnet.features import age_pair_scores, AGE_SPAN, make_population, Population
from prefnet.netgen import (
    age_code_slots,
    ba_target,
    edge_strength,
    generate_network,
    load_edge_list,
    NetworkSnapshot,
    pair_draws,
    save_network,
)
from prefnet.scenario import (
    AgeShape, load_scenario, Preference, RngPolicy, Rule, RULE_PREFERENCES, Scenario,
)

import oracles
from oracles import (
    draws_row,
    homophily_score,
    node_traits,
    pair_score,
    preferential_score,
    Traits,
)

P_PLUS = Preference(1, 1.0, 1, 0.0)
P_MINUS = Preference(-1, 1.0, 1, 0.0)
H_MINUS = Preference(1, 0.0, -1, 1.0)


def _traits(level, level_weight, difference, difference_weight):
    return Traits(
        np.array([level], dtype=float),
        np.array([level_weight], dtype=float),
        np.array([difference], dtype=float),
        np.array([difference_weight], dtype=float),
    )


def test_preferential_score_hand_values():
    up = _traits(1, 1.0, 1, 0.0)
    down = _traits(-1, 1.0, 1, 0.0)
    # both sides seek high values: 0.8/2 + 0.2/2 + 1 = 1.5
    assert preferential_score([0.2], [0.8], up, up) == pytest.approx(1.5, abs=1e-12)
    # both sides seek low values: -0.8/2 - 0.2/2 + 1 = 0.5
    assert preferential_score([0.2], [0.8], down, down) == pytest.approx(0.5, abs=1e-12)
    # zero weight is inert
    off = _traits(1, 0.0, 1, 1.0)
    assert preferential_score([0.2], [0.8], off, off) == pytest.approx(1.0, abs=1e-12)


def test_homophily_score_hand_values():
    similar = _traits(1, 0.0, -1, 1.0)
    dissimilar = _traits(1, 0.0, 1, 1.0)
    # gap 0.6, both prefer similar: 1 - 0.6 = 0.4
    assert homophily_score([0.2], [0.8], similar, similar) == pytest.approx(0.4, abs=1e-12)
    # both prefer dissimilar: 1 + 0.6 = 1.6
    assert homophily_score([0.2], [0.8], dissimilar, dissimilar) == pytest.approx(1.6, abs=1e-12)
    off = _traits(1, 1.0, 1, 0.0)
    assert homophily_score([0.2], [0.8], off, off) == pytest.approx(1.0, abs=1e-12)


def test_score_length_mismatch():
    with pytest.raises(ValueError):
        preferential_score([0.2, 0.3], [0.8], _traits(1, 1, 1, 0), _traits(1, 1, 1, 0))


def test_mixed_sides_average():
    # one side seeks high (weight 1), the other is indifferent (weight 0)
    up = _traits(1, 1.0, 0, 0.0)
    off = _traits(0, 0.0, 0, 0.0)
    # f_j = 0.8 rated by i only: 0.8/2 + 0 + 1 = 1.4
    assert preferential_score([0.2], [0.8], up, off) == pytest.approx(1.4, abs=1e-12)


_WEIGHT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=8, deadline=None)
@given(st.builds(Preference, st.sampled_from([-1, 0, 1]), _WEIGHT,
                 st.sampled_from([-1, 0, 1]), _WEIGHT))
def test_score_table_matches_scalar_oracles(preference):
    ages = np.arange(AGE_SPAN)
    table = age_pair_scores(preference, ages[:, None], ages[None, :]).ravel()
    assert table.shape == (AGE_SPAN * AGE_SPAN,)
    f, t = ages / AGE_SPAN, node_traits(preference)
    for a in range(AGE_SPAN):
        for b in range(AGE_SPAN):
            expected = (0.5 * preferential_score(f[a], f[b], t, t)
                        + 0.5 * homophily_score(f[a], f[b], t, t))
            assert abs(table[a * AGE_SPAN + b] - expected) <= 1e-12


def test_pair_score_components_and_gate():
    ages = np.array([18, 72, 45, 9])
    pop = Population(ages)
    always = Scenario(node_count=4, edge_budget=6, encounter_rate=1.0, noise_sigma=0.0)
    policy = RngPolicy(3)
    ps = pair_score(
        0, 1, pop, P_PLUS, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=always.encounter_rate, noise_sigma=always.noise_sigma,
    )
    assert ps.encountered
    assert ps.noise == 0.0
    assert ps.total == pytest.approx(0.5 * ps.level_term + 0.5 * ps.difference_term, abs=1e-12)
    f, t = ages / AGE_SPAN, node_traits(P_PLUS)
    assert ps.level_term == pytest.approx(preferential_score(f[0], f[1], t, t), abs=1e-12)
    # encounter rate 0 gates the total to zero but leaves the terms intact
    ps0 = pair_score(
        0, 1, pop, P_PLUS, policy.stream("encounter", 1), policy.stream("noise", 1),
        encounter_rate=0.0, noise_sigma=0.0,
    )
    assert not ps0.encountered
    assert ps0.total == 0.0
    assert ps0.level_term == ps.level_term


def test_pair_score_noise_moves_total_not_terms():
    ages = np.array([18, 72])
    pop = Population(ages)
    policy = RngPolicy(11)
    quiet = pair_score(
        0, 1, pop, P_PLUS, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=1.0, noise_sigma=0.0,
    )
    noisy = pair_score(
        0, 1, pop, P_PLUS, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=1.0, noise_sigma=0.005,
    )
    assert noisy.level_term == quiet.level_term
    assert noisy.difference_term == quiet.difference_term
    assert noisy.noise != 0.0
    assert noisy.total == pytest.approx(quiet.total + noisy.noise, abs=1e-12)


def test_pair_score_rejects_self_pair():
    pop = Population(np.array([10, 20]))
    policy = RngPolicy(0)
    with pytest.raises(ValueError):
        pair_score(1, 1, pop, P_PLUS, policy.stream("encounter", 0), policy.stream("noise", 0),
                   encounter_rate=1.0, noise_sigma=0.0)


def test_generate_full_encounter_exact_budget():
    sc = Scenario(encounter_rate=1.0, master_seed=4)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    assert net.edge_count == 1400
    assert net.degrees.mean() == pytest.approx(2 * 1400 / 90, abs=1e-12)
    assert net.degrees.sum() == 2800


def test_generate_matches_enumeration_oracle_for_p_plus():
    # deliberate age duplicates exercise the lexicographic tie-break
    ages = np.array([0, 9, 9, 18, 27, 36, 45, 54, 72, 81])
    pop = Population(ages)
    sc = Scenario(node_count=10, edge_budget=20, encounter_rate=1.0, noise_sigma=0.0,
                  preference=P_PLUS)
    net = generate_network(pop, sc, pair_draws(sc))
    f = ages / 90
    scored = sorted(
        ((i, j) for i in range(10) for j in range(i + 1, 10)),
        key=lambda p: (-(f[p[0]] + f[p[1]]), p[0], p[1]),
    )
    expected = sorted(scored[:20])
    assert [tuple(e) for e in net.edges] == expected


def test_h_minus_score_strictly_decreasing_in_gap():
    ages = np.array([0, 11, 23, 34, 47, 55, 68, 79, 89, 3])
    f, t = ages / AGE_SPAN, node_traits(H_MINUS)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    scores, gaps = {}, {}
    for i, j in pairs:
        total = 0.5 * preferential_score(f[i], f[j], t, t) + 0.5 * homophily_score(
            f[i], f[j], t, t
        )
        scores[(i, j)] = total
        gaps[(i, j)] = abs(int(ages[i]) - int(ages[j]))  # exact age-gap ordering
    for a in pairs:
        for b in pairs:
            if gaps[a] < gaps[b]:
                assert scores[a] > scores[b]


def _reference_network(population, p, scenario, encounter_stream, noise_stream):
    """Edges and gamma under preference p, ranked by a full lexsort of every
    met pair on (score desc, i asc, j asc), then re-sorted by (i, j)."""
    n = population.size
    iu, ju = np.triu_indices(n, 1)
    f = population.ages / AGE_SPAN
    a = p.level * p.level_weight
    b = p.difference * p.difference_weight
    level_term = (f[ju] * a + f[iu] * a) / 2 + 1.0
    gap = np.abs(f[iu] - f[ju])
    diff_term = (gap * b + gap * b) / 2 + 1.0
    encountered = encounter_stream.random(iu.shape[0]) < scenario.encounter_rate
    if scenario.noise_sigma > 0:
        noise = noise_stream.normal(0.0, scenario.noise_sigma, iu.shape[0])
    else:
        noise = np.zeros(iu.shape[0])
    score = 0.5 * level_term + 0.5 * diff_term + noise
    met = np.flatnonzero(encountered)
    order = np.lexsort((ju[met], iu[met], -score[met]))
    chosen = met[order[: scenario.edge_budget]]
    edges = np.column_stack((iu[chosen], ju[chosen]))
    rows = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[rows], edge_strength(score[chosen])[rows], met.shape[0]


@st.composite
def _growth_cases(draw):
    n = draw(st.integers(2, 30))
    pairs = n * (n - 1) // 2
    budget = draw(st.one_of(st.just(0), st.just(pairs), st.integers(0, pairs)))
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    preference = Preference(
        draw(st.sampled_from([-1, 0, 1])), draw(weight),
        draw(st.sampled_from([-1, 0, 1])), draw(weight),
    )
    return Scenario(
        node_count=n,
        edge_budget=budget,
        encounter_rate=draw(st.sampled_from([0.3, 0.5, 0.8, 1.0])),
        noise_sigma=draw(st.sampled_from([0.0, 0.005])),
        age_shape=draw(st.sampled_from(list(AgeShape))),
        preference=preference,
        master_seed=draw(st.integers(0, 2**32)),
    )


@pytest.mark.filterwarnings("ignore:only .* pairs encountered")
@settings(max_examples=150, deadline=None)
@given(_growth_cases())
def test_generate_matches_full_lexsort_reference(sc):
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    edges, gamma, met = _reference_network(
        pop, sc.preference, sc, policy.stream("encounter", 0), policy.stream("noise", 0)
    )
    assert np.array_equal(net.edges, edges)
    assert net.gamma.tobytes() == gamma.tobytes()
    assert net.edge_count == min(sc.edge_budget, met)
    assert net.degrees.sum() == 2 * net.edge_count
    assert (net.edges[:, 0] < net.edges[:, 1]).all()
    keys = net.edges[:, 0] * sc.node_count + net.edges[:, 1]
    assert (np.diff(keys) > 0).all()


def test_generate_scores_with_the_scenario_preference():
    # one population and one set of draws, grown under two scenarios that
    # differ only in their rule: each network is its own rule's
    base = Scenario(node_count=30, edge_budget=60, master_seed=3)
    pop, draws = make_population(base), pair_draws(base)
    nets = {}
    for rule in (Rule.P_PLUS, Rule.H_MINUS):
        sc = base.with_overrides(rule=rule)
        net = nets[rule] = generate_network(pop, sc, draws)
        edges, gamma, _ = _reference_network(
            pop, RULE_PREFERENCES[rule], sc,
            RngPolicy(3).stream("encounter", 0), RngPolicy(3).stream("noise", 0),
        )
        assert np.array_equal(net.edges, edges)
        assert net.gamma.tobytes() == gamma.tobytes()
    assert not np.array_equal(nets[Rule.P_PLUS].edges, nets[Rule.H_MINUS].edges)


def test_generate_deterministic_and_replicate_sensitive():
    sc = Scenario(master_seed=8)
    pop = make_population(sc)
    a = generate_network(pop, sc, pair_draws(sc))
    b = generate_network(pop, sc, pair_draws(sc))
    c = generate_network(pop, sc, draws_row(pair_draws(sc, 2), 1))
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.edges, c.edges)


def test_generate_shortfall_links_all_encounters_and_warns():
    sc = Scenario(node_count=10, edge_budget=40, encounter_rate=0.2, master_seed=5)
    pop = make_population(sc)
    with pytest.warns(UserWarning, match="edge budget"):
        net = generate_network(pop, sc, pair_draws(sc))
    # replay the encounter draws to count how many pairs actually met
    met = (RngPolicy(sc.master_seed).stream("encounter", 0).random(45) < 0.2).sum()
    assert net.edge_count == met < 40


@pytest.mark.parametrize("rule, budget, shortfall",
                         [("P+", 6, False), ("H-", 6, False), ("P+", 7, True)])
def test_a_runs_network_meta_names_its_scenario_and_shortfall(tmp_path, rule, budget, shortfall):
    # The meta file a run writes beside network.csv names the scenario the
    # network grew from and whether fewer pairs met than the budget: 6 of
    # the 45 pairs meet at seed 5, and growth keeps min(budget, met).
    out = tmp_path / "run"
    overrides = [f"rule={rule}", f"edge_budget={budget}", "node_count=10",
                 "encounter_rate=0.2", "master_seed=5"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a shortfall warns
        assert cli.main(["generate", "--out", str(out),
                         *(arg for o in overrides for arg in ("--set", o))]) == 0
    meta = json.loads((out / "network_meta.json").read_text(encoding="utf-8"))
    assert meta == {
        "node_count": 10,
        "edge_count": 6,
        "provenance": {
            "kind": "generated",
            "scenario": load_scenario(out / "scenario.txt").scenario_hash(),
            "streams": ["encounter", "noise"],
            "shortfall": shortfall,
            "replicate": 0,
        },
    }


def test_generate_zero_sigma_skips_noise_draws():
    sc = Scenario(noise_sigma=0.0, master_seed=2)
    pop = make_population(sc)
    draws = pair_draws(sc)
    assert draws.jitter.shape == (1, draws.met[0]) and not draws.jitter.any()
    assert generate_network(pop, sc, draws).edge_count == sc.edge_budget


def test_pair_draws_keep_met_pairs_in_pair_order():
    sc = Scenario(node_count=12, edge_budget=10, encounter_rate=0.6, master_seed=7)
    draws = pair_draws(sc)
    iu, ju = np.triu_indices(12, 1)
    met = RngPolicy(7).stream("encounter", 0).random(66) < 0.6
    noise = RngPolicy(7).stream("noise", 0).normal(0.0, sc.noise_sigma, 66)
    assert draws.i.dtype == draws.j.dtype == np.int32
    assert draws.met.tolist() == [met.sum()] and met.sum() < 66
    assert draws.i.tolist() == [iu[met].tolist()] and draws.j.tolist() == [ju[met].tolist()]
    assert draws.jitter.tobytes() == noise[met].tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_pair_draws_row_does_not_depend_on_replicate_count(sigma):
    # row r reads only replicate r's streams, so it is the same in the
    # draws of every R > r; rows are padded to the largest met count with
    # -inf jitter, and their endpoints are offset by r * n
    sc = Scenario(node_count=14, edge_budget=20, encounter_rate=0.5, noise_sigma=sigma,
                  master_seed=5)
    draws = [pair_draws(sc, replicates) for replicates in range(1, 5)]
    for replicates, d in enumerate(draws, start=1):
        assert d.i.shape == d.j.shape == d.jitter.shape == (replicates, d.met.max())
        pads = np.arange(d.met.max()) >= d.met[:, None]
        assert np.isneginf(d.jitter[pads]).all() and np.isfinite(d.jitter[~pads]).all()
        for r in range(replicates):
            real = slice(0, d.met[r])
            assert (d.i[r, real] // 14 == r).all() and (d.j[r, real] // 14 == r).all()
            first = draws[r]  # the draws of r + 1 replicates, whose last row is r
            assert d.met[r] == first.met[r]
            for a, b in ((d.i, first.i), (d.j, first.j), (d.jitter, first.jitter)):
                assert a[r, real].tobytes() == b[r, real].tobytes()
    assert draws[3].met.min() < draws[3].met.max()  # the last draws have pads


@pytest.mark.parametrize("replicates, sigma, rate", [
    (1, 0.005, 0.8), (3, 0.005, 0.8), (3, 0.0, 0.8), (1, 0.005, 0.0), (3, 0.0, 0.0),
    (1, 0.0, 1.0), (3, 0.005, 1.0),
])
def test_pair_draws_over_row_blocks_equal_one_draw_over_all_pairs(replicates, sigma, rate):
    # n = 700 takes 93 rows a block, so the pairs go in eight blocks, the
    # last of 49 rows; the draws must equal one uniform and one Gaussian
    # per pair of np.triu_indices, drawn in one call per replicate.
    n = 700
    sc = Scenario(node_count=n, edge_budget=1000, encounter_rate=rate, noise_sigma=sigma,
                  master_seed=3)
    draws = pair_draws(sc, replicates)
    iu, ju = np.triu_indices(n, 1)
    policy = RngPolicy(3)
    met_counts = []
    for r in range(replicates):
        met = policy.stream("encounter", r).random(iu.shape[0]) < rate
        jitter = policy.stream("noise", r).normal(0.0, sigma, iu.shape[0])[met] if sigma > 0 else 0.0
        count = int(met.sum())
        met_counts.append(count)
        assert draws.i[r, :count].tobytes() == (iu[met] + r * n).astype(np.int32).tobytes()
        assert draws.j[r, :count].tobytes() == (ju[met] + r * n).astype(np.int32).tobytes()
        want = np.broadcast_to(np.asarray(jitter, dtype=np.float64), (count,))
        assert draws.jitter[r, :count].tobytes() == want.tobytes()
        assert np.isneginf(draws.jitter[r, count:]).all()
    assert draws.met.tolist() == met_counts
    assert draws.i.shape == (replicates, max(met_counts))


def test_age_code_slots_score_each_code_in_use_once():
    ages = np.array([5, 0, 5, 89])
    sc = Scenario(node_count=4, edge_budget=2, encounter_rate=0.5, master_seed=3)
    d = pair_draws(sc, 3)
    (a, b), slot = age_code_slots(ages, d)
    assert slot.dtype == np.int16 and slot.shape == d.i.shape
    codes = a * AGE_SPAN + b
    real = np.arange(d.i.shape[1]) < d.met[:, None]
    pair_codes = ages[d.i % 4] * AGE_SPAN + ages[d.j % 4]
    assert codes.tolist() == sorted(set(pair_codes[real].tolist()))
    assert np.array_equal(codes[slot[real]], pair_codes[real])
    assert not slot[~real].any()


def test_generate_rejects_draws_of_several_replicates():
    sc = Scenario(node_count=10, edge_budget=5)
    pop = Population(np.arange(10))
    with pytest.raises(ValueError, match="got pair draws of 2 replicates"):
        generate_network(pop, sc, pair_draws(sc, 2))
    with pytest.raises(ValueError, match="replicates must be positive"):
        pair_draws(sc, 0)


def test_edge_strength_formula_and_range():
    ages = np.array([0, 9, 9, 18, 27, 36, 45, 54, 72, 81])
    pop = Population(ages)
    sc = Scenario(node_count=10, edge_budget=15, encounter_rate=1.0, noise_sigma=0.0,
                  preference=P_MINUS)
    net = generate_network(pop, sc, pair_draws(sc))
    f, t = ages / AGE_SPAN, node_traits(P_MINUS)
    for (i, j), g in zip(net.edges, net.gamma):
        total = 0.5 * preferential_score(f[i], f[j], t, t) + 0.5 * homophily_score(
            f[i], f[j], t, t
        )
        assert g == pytest.approx((total + 2) / 4, abs=1e-12)
        assert 0 < g <= 1


def test_generate_population_size_mismatch():
    pop = Population(np.array([10, 20, 30]))
    sc = Scenario(node_count=4, edge_budget=3)
    with pytest.raises(ValueError):
        generate_network(pop, sc, pair_draws(sc))
    fitting = Scenario(node_count=3, edge_budget=3)
    with pytest.raises(ValueError, match="pair draws for 4 nodes"):
        generate_network(pop, fitting, pair_draws(sc))


def test_ba_target_edge_count_and_mean():
    net = ba_target(90, 20, RngPolicy(0).stream("optimizer", 0))
    assert net.edge_count == 1400
    assert net.degrees.mean() == pytest.approx(2800 / 90, abs=1e-12)
    assert net.degrees.min() >= 1


def test_ba_target_first_arrival_links_all_initial_nodes():
    net = ba_target(30, 5, RngPolicy(9).stream("optimizer", 0))
    first = {tuple(e) for e in net.edges if 5 in e}
    for c in range(5):
        assert (c, 5) in first
    assert net.edge_count == 5 * 25


def test_ba_target_small_and_deterministic():
    a = ba_target(5, 2, RngPolicy(1).stream("optimizer", 0))
    b = ba_target(5, 2, RngPolicy(1).stream("optimizer", 0))
    c = ba_target(5, 2, RngPolicy(2).stream("optimizer", 0))
    assert a.edge_count == 2 * 3
    assert np.array_equal(a.edges, b.edges)
    assert a.edge_count == c.edge_count
    # degrees add to twice the edges
    assert a.degrees.sum() == 12


@pytest.mark.parametrize(
    "n, m",
    [(90, 20), (200, 5), (30, 4), (10, 9), (2, 1), (90, 1), (60, 59), (500, 50)],
)
def test_ba_target_matches_the_fresh_cumsum_oracle(n, m):
    # running cumulative sums pick the nodes a fresh float cumsum per pick
    # picks, from the same uniforms
    for seed in range(3):
        fast = ba_target(n, m, RngPolicy(seed).stream("optimizer", 0))
        slow = oracles.ba_target(n, m, RngPolicy(seed).stream("optimizer", 0))
        assert np.array_equal(fast.edges, slow.edges)


def test_ba_target_validation():
    stream = RngPolicy(0).stream("optimizer", 0)
    with pytest.raises(ValueError):
        ba_target(5, 0, stream)
    with pytest.raises(ValueError):
        ba_target(5, 5, stream)


def test_adjacency_and_degrees_consistent():
    sc = Scenario(master_seed=6)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    adj = np.zeros((net.node_count, net.node_count), dtype=bool)
    adj[net.edges[:, 0], net.edges[:, 1]] = True
    adj[net.edges[:, 1], net.edges[:, 0]] = True
    assert (adj == adj.T).all()
    assert not adj.diagonal().any()
    assert np.array_equal(adj.sum(axis=0), net.degrees)
    assert net.degrees.sum() == 2 * net.edge_count
    # neighbour lists: each row's neighbours in ascending order, rows in turn
    assert np.array_equal(net.neighbours, np.nonzero(adj)[1])


def test_snapshot_rejects_bad_edges():
    from prefnet.netgen import NetworkSnapshot

    with pytest.raises(ValueError):
        NetworkSnapshot(3, np.array([[0, 0]]), np.array([1.0]))  # i == j
    with pytest.raises(ValueError):
        NetworkSnapshot(3, np.array([[0, 3]]), np.array([1.0]))  # out of range
    with pytest.raises(ValueError):
        NetworkSnapshot(3, np.array([[0, 1], [0, 1]]), np.array([1.0, 1.0]))  # dup
    with pytest.raises(ValueError):
        NetworkSnapshot(3, np.array([[0, 1]]), np.array([1.0, 2.0]))  # gamma len


@pytest.mark.parametrize(
    "edges",
    [[(0, 1), (0, 1), (1, 2)], [(1, 2), (0, 1), (1, 2)]],
    ids=["sorted", "unsorted"],
)
def test_snapshot_rejects_duplicate_edges(edges):
    with pytest.raises(ValueError, match="duplicate edges"):
        NetworkSnapshot(3, np.array(edges), np.ones(len(edges)))


def test_snapshot_accepts_unsorted_unique_edges():
    net = NetworkSnapshot(3, np.array([(1, 2), (0, 2), (0, 1)]), np.ones(3))
    assert net.degrees.tolist() == [2, 2, 2]


def test_edge_list_round_trip(tmp_path):
    net = ba_target(12, 3, RngPolicy(4).stream("optimizer", 0))
    path = tmp_path / "net.csv"
    save_network(net, path)
    loaded = load_edge_list(path)
    assert loaded.node_count == 12
    assert np.array_equal(loaded.edges, net.edges)
    assert np.array_equal(loaded.gamma, net.gamma)


@st.composite
def _sizes(draw):
    n = draw(st.integers(2, 40))
    return n, draw(st.integers(0, n * (n - 1) // 2))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), _sizes(), st.sampled_from([0.0, 0.005, 0.3]))
@example(0, (5, 0), 0.0)  # no edges: the file has a header alone and 0 nodes
def test_edge_list_round_trip_of_generated_networks(seed, sizes, sigma):
    # Gamma is the scored strength of each kept pair, so the noise widths
    # give gammas of many lengths; repr must bring each back bit for bit.
    n, budget = sizes
    sc = Scenario(node_count=n, edge_budget=budget, noise_sigma=sigma, master_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a budget beyond the met pairs warns
        net = generate_network(make_population(sc), sc, pair_draws(sc))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.csv"
        save_network(net, path)
        loaded = load_edge_list(path)
    assert np.array_equal(loaded.edges, net.edges)
    assert loaded.gamma.tobytes() == net.gamma.tobytes()
    assert loaded.node_count == (int(net.edges.max()) + 1 if net.edge_count else 0)


def test_edge_list_normalises_unordered_rows(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("3,1\n0,2\n", encoding="utf-8")
    net = load_edge_list(path)
    assert net.node_count == 4
    assert [tuple(e) for e in net.edges] == [(0, 2), (1, 3)]
    assert (net.gamma == 1.0).all()


def test_edge_list_rejects_self_loop(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("i,j\n2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="raw.csv: line 2: self-loop 2,2"):
        load_edge_list(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1\n1,2\n0,1\n", "raw.csv: lines 2 and 4: repeated edge 0,1"),
        ("0,1\n1,2\n1,0\n", "raw.csv: lines 2 and 4: repeated edge 0,1"),
        ("0,1\n-1,2\n", "raw.csv: line 3: node ids must be non-negative, got -1,2"),
        ("0,1\n0,18446744073709551616\n",
         "raw.csv: line 3: node id 18446744073709551616 too large; ids must be below "
         "9223372036854775807 for the node count to fit int64"),
        ("0,9223372036854775807\n",
         "raw.csv: line 2: node id 9223372036854775807 too large"),
    ],
    ids=["repeat", "repeat-reversed", "negative", "beyond-int64", "node-count-beyond-int64"],
)
def test_edge_list_bad_rows_name_file_and_line(tmp_path, rows, message):
    path = tmp_path / "raw.csv"
    path.write_text("i,j\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_edge_list(path)


def test_save_network_writes_repr_rows(tmp_path):
    net = NetworkSnapshot(4, np.array([(0, 1), (1, 3)]), np.array([0.1 + 0.2, 1e-05]))
    path = tmp_path / "net.csv"
    save_network(net, path)
    assert path.read_bytes() == b"i,j,gamma\n0,1,0.30000000000000004\n1,3,1e-05\n"


@st.composite
def _edge_rows(draw):
    """n up to 300, a sorted list of distinct pairs i < j, and one gamma
    per pair: mostly of either sign with 1e-4 <= |gamma| < 1e16, where the
    block encoder computes the digits itself, else any float, with the
    ones whose repr is unusual drawn often."""
    n = draw(st.integers(2, 300))
    pair = st.integers(0, n - 2).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    pairs = sorted(draw(st.sets(pair, max_size=40)))
    inside = st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda g: st.sampled_from([g, -g]))
    gamma = st.one_of(inside, inside, inside, st.floats(),
                      st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, math.inf, math.nan]))
    return n, pairs, draw(st.lists(gamma, min_size=len(pairs), max_size=len(pairs)))


@settings(max_examples=25, deadline=None)
@given(_edge_rows(), st.sampled_from([1, 3, 4096]))
def test_save_network_writes_each_row_as_its_repr(rows, block):
    # Whatever the block size, each row reads str(i), str(j) and repr(gamma).
    n, pairs, gammas = rows
    net = NetworkSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(gammas))
    want = "i,j,gamma\n" + "".join(f"{i},{j},{g!r}\n" for (i, j), g in zip(pairs, gammas))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_WRITE_BLOCK", block)
        path = Path(tmp) / "net.csv"
        save_network(net, path)
        assert path.read_bytes() == want.encode("utf-8")


def _rows_text(edges, gamma) -> bytes:
    return "".join(f"{i},{j},{g!r}\n" for (i, j), g in zip(edges.tolist(), gamma.tolist())).encode()


def _count_template_blocks(monkeypatch) -> list:
    """Record the size of each block `edge_rows` hands to the % template."""
    sizes, template = [], artifacts._repr_rows

    def counting(edges, gamma):
        sizes.append(gamma.shape[0])
        return template(edges, gamma)

    monkeypatch.setattr(artifacts, "_repr_rows", counting)
    return sizes


def _kernel_edges():
    """10**k for k in -4..16 and the doubles one and two ulps either side,
    non-integer powers of two, exact decimal halves, integers around
    2**53 and 1e16, zeros, subnormals and non-finite values: each edge of
    the block encoder's domain, of either sign."""
    tens = [float(f"1e{k}") for k in range(-4, 17)]
    near = [np.nextafter(t, direction, dtype=np.float64) for t in tens for direction in (0.0, np.inf)]
    near += [np.nextafter(t, direction) for t, direction in zip(near, [0.0, np.inf] * len(tens))]
    halves = [0.375, 12.5, 0.5, 2.5, 0.125, 1.5, 1e15 + 0.5, 123456.0625, 9.5, 0.0625,
              1e15 + 0.25, 1e15 + 0.75, 2.0**50 + 0.75]  # the last three: halves at 17 digits
    around = [float(2**53 + d) for d in range(-4, 5)] + [1e16 - d for d in (1, 2, 4)]
    around += [1e15 + d for d in (-1.5, -1.0, 0.25, 1.0)]
    odd = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, math.inf, math.nan, 9.5367431640625e-07]
    values = tens + near + halves + around + odd + [2.0**-k for k in range(1, 17)]
    return np.array(values + [-v for v in values])


def test_edge_rows_writes_each_edge_of_the_kernel_domain_as_its_repr():
    gamma = _kernel_edges()
    edges = np.stack([np.arange(gamma.shape[0]), np.arange(gamma.shape[0]) * 7 + 1], axis=1)
    # one row a block, so each value takes its own path, then all at once
    for k in range(gamma.shape[0]):
        assert artifacts.edge_rows(edges[k : k + 1], gamma[k : k + 1]) == _rows_text(
            edges[k : k + 1], gamma[k : k + 1])
    assert artifacts.edge_rows(edges, gamma) == _rows_text(edges, gamma)


def test_edge_rows_writes_random_doubles_as_their_repr(monkeypatch):
    # 240000 doubles of random mantissa and sign, 1e-4 <= |g| < 1e16, in
    # blocks of 256 by magnitude, so that the values the kernel leaves to
    # the template share blocks: those whose 16-digit value is at least
    # 2**53, and above 1e12 the exact decimal halves. The kernel decides
    # most blocks, and each must read as repr writes it.
    rng = np.random.default_rng(2024)
    count = 240_000
    gamma = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-4, 16, count)
    gamma = np.sort(gamma) * rng.choice([-1.0, 1.0], count)
    ids = rng.integers(0, 10 ** rng.integers(1, 19, count))
    edges = np.stack([ids, ids + 1], axis=1)
    templated = _count_template_blocks(monkeypatch)
    for s in range(0, count, 256):
        block = slice(s, s + 256)
        assert artifacts.edge_rows(edges[block], gamma[block]) == _rows_text(edges[block], gamma[block])
    assert sum(templated) < 0.35 * count


@pytest.mark.parametrize("n, budget", [(90, 1400), (1000, 174607)], ids=["paper", "n1000"])
def test_save_network_needs_no_template_on_the_paper_density(tmp_path, monkeypatch, n, budget):
    # The kernel decides every gamma of the default network and of an
    # n=1000 one at the paper's edge density: none falls back to repr.
    sc = Scenario(node_count=n, edge_budget=budget, master_seed=0)
    net = generate_network(make_population(sc), sc, pair_draws(sc))
    templated = _count_template_blocks(monkeypatch)
    path = tmp_path / "net.csv"
    save_network(net, path)
    assert templated == []
    assert path.read_bytes() == b"i,j,gamma\n" + _rows_text(net.edges, net.gamma)


def _short_strengths(kind, places, seed, count=4096):
    """`count` strengths of either sign, 1e-4 <= |g| < 1e16 unless
    rounding leaves that range, whose repr is short or lies next to a
    decimal half: `places` significant digits ("digits"), `round(x,
    places)` ("round"), k / 2**m ("dyadic", exact, many of them a decimal
    half at a shorter scale), or 17-digit values in [1, 2) ("seventeen")."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-4, 16, count)
    if kind == "digits":
        gamma = np.array([float(f"{v:.{places}g}") for v in x.tolist()])
    elif kind == "round":
        gamma = np.array([round(v, places) for v in (x / 10.0 ** (places - 3)).tolist()])
    elif kind == "dyadic":
        gamma = rng.integers(1, 2**20, count) / 2.0 ** rng.integers(0, 14, count)
    else:
        gamma = 1.0 + rng.random(count)
    return gamma * rng.choice([-1.0, 1.0], count)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["digits", "round", "dyadic", "seventeen"]), st.integers(1, 15),
       st.integers(0, 2**32 - 1))
@example("digits", 2, 0)
@example("round", 3, 1)
def test_edge_rows_write_short_and_half_way_strengths_as_their_repr(kind, places, seed):
    # Each of 0.125 and 2.5 (exact decimal halves), 0.35 and 0.45 (halves
    # on a known side of their double) and the first 60 drawn values goes
    # as a block of one row, so that each takes its own path; then the
    # 4096 drawn values go as one block.
    gamma = _short_strengths(kind, places, seed)
    ids = np.random.default_rng(seed).integers(0, 10 ** np.arange(1, 19).repeat(228)[:4096])
    edges = np.stack([ids, ids // 3], axis=1)
    singles = np.concatenate(([0.125, -2.5, 0.35, 0.45], gamma[:60]))
    for k in range(singles.shape[0]):
        assert artifacts.edge_rows(edges[k : k + 1], singles[k : k + 1]) == _rows_text(
            edges[k : k + 1], singles[k : k + 1])
    assert artifacts.edge_rows(edges, gamma) == _rows_text(edges, gamma)


def test_shortest_digits_break_a_dropped_half_by_the_residual_sign():
    # 0.35 and 2.675 lie below their decimal text and 0.45 above it, so
    # each 16-digit D ends in a 5 and zeros while the product's side of D
    # is known, and the step down goes on past it. 0.125 and 2.5 are
    # exact: their half is a true tie, which goes to the % template.
    digits, scale = artifacts._shortest(np.array([0.35, 2.675, 0.45]))
    assert digits.tolist() == [35, 2675, 45] and scale.tolist() == [2, 3, 2]
    for exact in (0.125, 2.5):
        assert artifacts._shortest(np.array([exact])) is None


def test_edge_list_rejects_short_row(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("i,j\n0,1\n2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_edge_list(path)


def test_edge_list_header_only_on_first_row(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("\ni,j\n0,1\nsource,target\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4"):
        load_edge_list(path)
    path.write_text("\ni,j\n0,1\n1,2\n", encoding="utf-8")
    assert load_edge_list(path).edge_count == 2


def test_edge_list_numeric_first_row_is_data(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1.5,2\n0,1\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: expected i,j"):
        load_edge_list(path)
    path.write_text("+3,1\n0,2\n", encoding="utf-8")
    assert [tuple(e) for e in load_edge_list(path).edges] == [(0, 2), (1, 3)]


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_edge_list_rejects_non_finite_gamma(tmp_path, gamma):
    path = tmp_path / "raw.csv"
    path.write_text(f"i,j,gamma\n0,1,0.5\n1,2,{gamma}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"raw.csv: line 3: gamma must be finite, got '{gamma}'"):
        load_edge_list(path)
