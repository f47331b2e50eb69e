"""Pair scoring, budgeted growth and the scale-free target."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefnet.features import make_population, Population
from prefnet.netgen import (
    ba_target,
    edge_strength,
    generate_network,
    homophily_score,
    load_edge_list,
    NetworkSnapshot,
    node_traits,
    pair_score,
    preferential_score,
    save_network,
    Traits,
)
from prefnet.scenario import AgeShape, Preference, RngPolicy, Scenario

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


def test_pair_score_components_and_gate():
    ages = np.array([18, 72, 45, 9])
    pop = Population.homogeneous(ages, P_PLUS)
    always = Scenario(node_count=4, edge_budget=6, encounter_rate=1.0, noise_sigma=0.0)
    policy = RngPolicy(3)
    ps = pair_score(
        0, 1, pop, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=always.encounter_rate, noise_sigma=always.noise_sigma,
    )
    assert ps.encountered
    assert ps.noise == 0.0
    assert ps.total == pytest.approx(0.5 * ps.level_term + 0.5 * ps.difference_term, abs=1e-12)
    f = pop.features
    assert ps.level_term == pytest.approx(
        preferential_score(f[0], f[1], node_traits(pop, 0), node_traits(pop, 1)), abs=1e-12
    )
    # encounter rate 0 gates the total to zero but leaves the terms intact
    ps0 = pair_score(
        0, 1, pop, policy.stream("encounter", 1), policy.stream("noise", 1),
        encounter_rate=0.0, noise_sigma=0.0,
    )
    assert not ps0.encountered
    assert ps0.total == 0.0
    assert ps0.level_term == ps.level_term


def test_pair_score_noise_moves_total_not_terms():
    ages = np.array([18, 72])
    pop = Population.homogeneous(ages, P_PLUS)
    policy = RngPolicy(11)
    quiet = pair_score(
        0, 1, pop, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=1.0, noise_sigma=0.0,
    )
    noisy = pair_score(
        0, 1, pop, policy.stream("encounter", 0), policy.stream("noise", 0),
        encounter_rate=1.0, noise_sigma=0.005,
    )
    assert noisy.level_term == quiet.level_term
    assert noisy.difference_term == quiet.difference_term
    assert noisy.noise != 0.0
    assert noisy.total == pytest.approx(quiet.total + noisy.noise, abs=1e-12)


def test_pair_score_rejects_self_pair():
    pop = Population.homogeneous(np.array([10, 20]), P_PLUS)
    policy = RngPolicy(0)
    with pytest.raises(ValueError):
        pair_score(1, 1, pop, policy.stream("encounter", 0), policy.stream("noise", 0),
                   encounter_rate=1.0, noise_sigma=0.0)


def test_generate_full_encounter_exact_budget():
    sc = Scenario(encounter_rate=1.0, master_seed=4)
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    assert net.edge_count == 1400
    assert net.degrees.mean() == pytest.approx(2 * 1400 / 90, abs=1e-12)
    assert net.degrees.sum() == 2800


def test_generate_matches_enumeration_oracle_for_p_plus():
    # deliberate age duplicates exercise the lexicographic tie-break
    ages = np.array([0, 9, 9, 18, 27, 36, 45, 54, 72, 81])
    pop = Population.homogeneous(ages, P_PLUS)
    sc = Scenario(node_count=10, edge_budget=20, encounter_rate=1.0, noise_sigma=0.0)
    policy = RngPolicy(0)
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    f = ages / 90
    scored = sorted(
        ((i, j) for i in range(10) for j in range(i + 1, 10)),
        key=lambda p: (-(f[p[0]] + f[p[1]]), p[0], p[1]),
    )
    expected = sorted(scored[:20])
    assert [tuple(e) for e in net.edges] == expected


def test_h_minus_score_strictly_decreasing_in_gap():
    ages = np.array([0, 11, 23, 34, 47, 55, 68, 79, 89, 3])
    pop = Population.homogeneous(ages, H_MINUS)
    f = pop.features
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    scores, gaps = {}, {}
    for i, j in pairs:
        t_i, t_j = node_traits(pop, i), node_traits(pop, j)
        total = 0.5 * preferential_score(f[i], f[j], t_i, t_j) + 0.5 * homophily_score(
            f[i], f[j], t_i, t_j
        )
        scores[(i, j)] = total
        gaps[(i, j)] = abs(int(ages[i]) - int(ages[j]))  # exact age-gap ordering
    for a in pairs:
        for b in pairs:
            if gaps[a] < gaps[b]:
                assert scores[a] > scores[b]


def _reference_network(population, scenario, encounter_stream, noise_stream):
    """Edges and gamma ranked by a full lexsort of every met pair on
    (score desc, i asc, j asc), then re-sorted by (i, j)."""
    n, l = population.size, population.feature_count
    iu, ju = np.triu_indices(n, 1)
    f = population.features
    a = population.level * population.level_weight
    b = population.difference * population.difference_weight
    level_term = (f[ju] * a[iu] + f[iu] * a[ju]).sum(axis=1) / (2 * l) + 1.0
    gap = np.abs(f[iu] - f[ju])
    diff_term = (gap * b[iu] + gap * b[ju]).sum(axis=1) / (2 * l) + 1.0
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
    return edges[rows], edge_strength(score[chosen], l)[rows], met.shape[0]


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
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    edges, gamma, met = _reference_network(
        pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0)
    )
    assert np.array_equal(net.edges, edges)
    assert net.gamma.tobytes() == gamma.tobytes()
    assert net.edge_count == min(sc.edge_budget, met)
    assert net.degrees.sum() == 2 * net.edge_count
    assert (net.edges[:, 0] < net.edges[:, 1]).all()
    keys = net.edges[:, 0] * sc.node_count + net.edges[:, 1]
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_generate_matches_reference_for_per_node_traits(columns):
    rng = np.random.default_rng(columns)
    n = 25
    signs, weights = [-1.0, 0.0, 1.0], [0.0, 0.5, 1.0]
    pop = Population(
        ages=rng.integers(0, 90, n),
        level=rng.choice(signs, (n, columns)),
        level_weight=rng.choice(weights, (n, columns)),
        difference=rng.choice(signs, (n, columns)),
        difference_weight=rng.choice(weights, (n, columns)),
    )
    sc = Scenario(node_count=n, edge_budget=150, encounter_rate=0.8, noise_sigma=0.0)
    policy = RngPolicy(columns)
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    edges, gamma, _ = _reference_network(
        pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0)
    )
    assert np.array_equal(net.edges, edges)
    assert net.gamma.tobytes() == gamma.tobytes()


def test_generate_deterministic_and_replicate_sensitive():
    sc = Scenario(master_seed=8)
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    a = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    b = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    c = generate_network(pop, sc, policy.stream("encounter", 1), policy.stream("noise", 1))
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.edges, c.edges)


def test_generate_shortfall_links_all_encounters_and_warns():
    sc = Scenario(node_count=10, edge_budget=40, encounter_rate=0.2, master_seed=5)
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    with pytest.warns(UserWarning, match="edge budget"):
        net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    # replay the encounter draws to count how many pairs actually met
    met = (RngPolicy(sc.master_seed).stream("encounter", 0).random(45) < 0.2).sum()
    assert net.edge_count == met < 40
    assert net.provenance["shortfall"] is True


def test_generate_zero_sigma_skips_noise_draws():
    sc = Scenario(noise_sigma=0.0, master_seed=2)
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    noise_stream = policy.stream("noise", 0)
    generate_network(pop, sc, policy.stream("encounter", 0), noise_stream)
    untouched = RngPolicy(sc.master_seed).stream("noise", 0).random()
    assert noise_stream.random() == untouched


def test_edge_strength_formula_and_range():
    ages = np.array([0, 9, 9, 18, 27, 36, 45, 54, 72, 81])
    pop = Population.homogeneous(ages, P_MINUS)
    sc = Scenario(node_count=10, edge_budget=15, encounter_rate=1.0, noise_sigma=0.0)
    policy = RngPolicy(0)
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    f = pop.features
    for (i, j), g in zip(net.edges, net.gamma):
        t_i, t_j = node_traits(pop, int(i)), node_traits(pop, int(j))
        total = 0.5 * preferential_score(f[i], f[j], t_i, t_j) + 0.5 * homophily_score(
            f[i], f[j], t_i, t_j
        )
        assert g == pytest.approx((total + 2) / 4, abs=1e-12)
        assert 0 < g <= 1


def test_generate_population_size_mismatch():
    pop = Population.homogeneous(np.array([10, 20, 30]), P_PLUS)
    sc = Scenario(node_count=4, edge_budget=3)
    policy = RngPolicy(0)
    with pytest.raises(ValueError):
        generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))


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


def test_ba_target_validation():
    stream = RngPolicy(0).stream("optimizer", 0)
    with pytest.raises(ValueError):
        ba_target(5, 0, stream)
    with pytest.raises(ValueError):
        ba_target(5, 5, stream)


def test_adjacency_and_degrees_consistent():
    sc = Scenario(master_seed=6)
    policy = RngPolicy(sc.master_seed)
    pop = make_population(sc.age_shape, sc.node_count, sc.resolved_preference(),
                          policy.stream("feature-gen"))
    net = generate_network(pop, sc, policy.stream("encounter", 0), policy.stream("noise", 0))
    adj = net.adjacency
    assert (adj == adj.T).all()
    assert not adj.diagonal().any()
    assert np.array_equal(adj.sum(axis=0), net.degrees)
    assert net.degrees.sum() == 2 * net.edge_count


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
    save_network(net, path, tmp_path / "net.json")
    loaded = load_edge_list(path, node_count=12)
    assert loaded.node_count == 12
    assert np.array_equal(loaded.edges, net.edges)
    assert np.array_equal(loaded.gamma, net.gamma)


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
    with pytest.raises(ValueError):
        load_edge_list(path)


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
