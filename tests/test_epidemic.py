"""Spreading dynamics, seeding, and population-at-risk accounting."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefnet.epidemic import (
    EpidemicTrace,
    infection_by_distance,
    multi_source_distances,
    par_by_group,
    par_matrix,
    risk_report,
    run_si,
    select_seeds,
)
from prefnet.features import AGE_SPAN, make_population, Population
from prefnet.netgen import generate_network, NetworkSnapshot, pair_draws
from prefnet.scenario import RngPolicy, Scenario

import oracles
from oracles import transition_probability


def _net(node_count, edges):
    edges = np.array(sorted(tuple(sorted(e)) for e in edges), dtype=np.int64)
    return NetworkSnapshot(node_count, edges, np.ones(len(edges)))


def _bfs_ball(edges, node_count, sources, radius):
    """Independent BFS oracle: set of nodes within `radius` of sources."""
    adj = {v: set() for v in range(node_count)}
    for i, j in edges:
        adj[int(i)].add(int(j))
        adj[int(j)].add(int(i))
    dist = {int(s): 0 for s in sources}
    queue = deque(int(s) for s in sources)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return {v for v, d in dist.items() if d <= radius}


def _generated(seed=0, **overrides):
    sc = Scenario(master_seed=seed, **overrides)
    policy = RngPolicy(seed)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    return sc, policy, pop, net


# ---------------------------------------------------------------------------
# The transition rule


def test_from_transmissibility_bounds():
    net, sc, _ = _ladder_case(6, _PATH_6)
    stream = RngPolicy(0).counter_stream("infection", 0)
    run_si(net, sc, stream, taus=[0.0])  # full immunity is expressible
    for tau in (1.0001, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"transmissibility must lie in \[0, 1\]"):
            run_si(net, sc, stream, taus=[0.5, tau])


def test_transition_probability_hand_values():
    # two exposures: 1 - 0.8^2 = 0.36
    assert transition_probability(0.2, 2) == pytest.approx(0.36, abs=1e-12)
    assert transition_probability(0.2, 1) == pytest.approx(0.2, abs=1e-12)
    assert transition_probability(0.2, 0) == 0.0
    with pytest.raises(ValueError):
        transition_probability(0.2, -1)


def test_transition_probability_saturates():
    assert transition_probability(1.0, 3) == 1.0


# ---------------------------------------------------------------------------
# Seed selection


def test_select_seeds_max_degree():
    # star: center 0 has the top degree
    star = _net(6, [(0, v) for v in range(1, 6)])
    assert list(select_seeds(star, 1)) == [0]


def test_select_seeds_tie_breaks_to_lowest_id():
    # two disjoint triangles: all degrees equal, lowest id wins
    net = _net(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert list(select_seeds(net, 1)) == [0]
    assert list(select_seeds(net, 2)) == [0, 1]


def test_select_seeds_zero_count():
    net = _net(3, [(0, 1)])
    assert select_seeds(net, 0).shape == (0,)


def test_select_seeds_rejects_a_count_outside_the_nodes():
    net = _net(3, [(0, 1)])
    for count in (-1, 4):
        with pytest.raises(ValueError, match=r"seed count must lie in \[0, 3\]"):
            select_seeds(net, count)


@st.composite
def _seed_cases(draw):
    """A small graph (random, so isolated nodes and degree ties are common,
    or empty, a cycle or complete, where every degree is equal) and a seed
    count from 0 to n."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = draw(st.sampled_from(["random", "empty", "cycle", "complete"]))
    if kind == "random" and pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    elif kind == "cycle" and n >= 3:
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif kind == "complete":
        edges = pairs
    else:
        edges = []
    return _net(n, edges), draw(st.integers(0, n))


@settings(max_examples=200, deadline=None)
@given(_seed_cases())
def test_run_si_seeds_are_the_oracles_pick(case):
    net, count = case
    n = net.node_count
    sc = Scenario(node_count=n, edge_budget=net.edge_count, seed_count=count, master_seed=0)
    [trace] = run_si(net, sc, RngPolicy(0).counter_stream("infection", 0))
    expected = oracles.select_seeds(net, count).tolist()
    assert trace.seeds.tolist() == expected
    assert select_seeds(net, count).tolist() == expected
    assert (np.diff(trace.seeds) > 0).all()
    assert np.flatnonzero(trace.status[0]).tolist() == expected


# ---------------------------------------------------------------------------
# The spreading process


def test_multi_source_distances_matches_bfs():
    sc, policy, pop, net = _generated(2)
    dist = multi_source_distances(net, np.array([0, 5]))
    ball_prev = set()
    for radius in range(4):
        ball = _bfs_ball(net.edges, net.node_count, [0, 5], radius)
        assert {v for v in range(net.node_count) if dist[v] <= radius} == ball
        assert ball >= ball_prev
        ball_prev = ball


def test_run_si_full_transmissibility_is_bfs_ball():
    sc, policy, pop, net = _generated(1, transmissibility=1.0)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    for t in range(sc.horizon + 1):
        infected = {v for v in range(net.node_count) if trace.status[t, v]}
        radius = min(t, sc.distance_cap)
        assert infected == _bfs_ball(net.edges, net.node_count, trace.seeds, radius)


def test_run_si_zero_transmissibility_keeps_only_seeds():
    sc, policy, pop, net = _generated(4, transmissibility=0.0)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    assert trace.status[-1].sum() == 1
    assert set(np.flatnonzero(trace.status[-1])) == set(trace.seeds)


def test_run_si_distance_cap_blocks_far_nodes():
    # path of 7: the seed is node 1, the lowest id of degree 2, and cap 2
    # stops the wave at node 3, distance 2
    edges = [(v, v + 1) for v in range(6)]
    net = _net(7, edges)
    sc = Scenario(node_count=7, edge_budget=6, transmissibility=1.0, horizon=6,
                  distance_cap=2, master_seed=0)
    [trace] = run_si(net, sc, RngPolicy(0).counter_stream("infection", 0))
    assert list(trace.seeds) == [1]
    assert set(np.flatnonzero(trace.status[-1])) == {0, 1, 2, 3}


def test_run_si_status_monotone_and_capped():
    sc, policy, pop, net = _generated(6, transmissibility=0.5)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    for t in range(1, sc.horizon + 1):
        assert (trace.status[t] >= trace.status[t - 1]).all()
    infected = np.flatnonzero(trace.status[-1])
    assert (trace.distances[infected] <= sc.distance_cap).all()


def test_run_si_deterministic_and_replicate_sensitive():
    sc, policy, pop, net = _generated(3, transmissibility=0.3)
    [a] = run_si(net, sc, policy.counter_stream("infection", 0))
    [b] = run_si(net, sc, policy.counter_stream("infection", 0))
    [c] = run_si(net, sc, policy.counter_stream("infection", 1))
    assert np.array_equal(a.status, b.status)
    assert not np.array_equal(a.status, c.status)


def test_run_si_horizon_prefix_stable():
    # draws are addressed by (step, node), so a longer horizon extends the
    # exact same trajectory instead of reshuffling it
    sc, policy, pop, net = _generated(9, transmissibility=0.4)
    [short] = run_si(net, sc.with_overrides(horizon=3),
                   policy.counter_stream("infection", 0))
    [long] = run_si(net, sc.with_overrides(horizon=6),
                  policy.counter_stream("infection", 0))
    assert np.array_equal(short.status, long.status[:4])


@st.composite
def _si_cases(draw):
    """A random graph and scenario for run_si, plus a longer horizon to
    compare prefixes against."""
    n = draw(st.integers(1, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    sc = Scenario(
        node_count=n,
        edge_budget=len(edges),
        transmissibility=draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])),
        horizon=draw(st.integers(0, 6)),
        distance_cap=draw(st.integers(0, 6)),
        seed_count=draw(st.integers(0, min(n, 3))),
        master_seed=draw(st.integers(0, 2**16)),
    )
    extra = draw(st.integers(1, 4))
    return _net(n, edges), sc, extra


@settings(max_examples=100, deadline=None)
@given(_si_cases())
def test_run_si_invariants(case):
    net, sc, extra = case
    stream = RngPolicy(sc.master_seed).counter_stream("infection", 0)
    [trace] = run_si(net, sc, stream)
    n, h = net.node_count, sc.horizon
    assert trace.status.shape == (h + 1, n)
    # row 0 is exactly the seeds: the seed_count highest degrees, ties to lower id
    top = sorted(range(n), key=lambda v: (-int(net.degrees[v]), v))[: sc.seed_count]
    assert trace.seeds.tolist() == sorted(top)
    assert set(np.flatnonzero(trace.status[0])) == set(top)
    # rows are nested, and by step t nothing is beyond t hops or the cap
    assert (trace.status[1:] >= trace.status[:-1]).all()
    for t in range(h + 1):
        ball = _bfs_ball(net.edges, n, top, min(t, sc.distance_cap))
        assert set(np.flatnonzero(trace.status[t])) <= ball
    # a longer horizon extends the same trajectory
    [longer] = run_si(net, sc.with_overrides(horizon=h + extra), stream)
    assert np.array_equal(longer.status[: h + 1], trace.status)


# A transmissibility, with the ends 0 and 1 drawn often.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(_si_cases(), st.one_of(st.none(), _UNIT), st.data())
def test_run_si_and_distances_match_dense_oracle(case, tau, data):
    net, sc, _ = case
    stream = RngPolicy(sc.master_seed).counter_stream("infection", 0)
    [ours] = run_si(net, sc, stream, None if tau is None else [tau])
    ref = oracles.run_si(net, sc, stream, tau)
    assert np.array_equal(ours.seeds, ref.seeds)
    assert np.array_equal(ours.distances, ref.distances)
    assert np.array_equal(ours.status, ref.status)
    sources = np.array(data.draw(st.lists(st.integers(0, net.node_count - 1), max_size=5)))
    assert np.array_equal(
        multi_source_distances(net, sources), oracles.multi_source_distances(net, sources)
    )


_LADDER = [0.0, 1.0, 0.3, 0.7, 0.9, 0.6]


def _ladder_case(n, edges, **fields):
    sc = Scenario(node_count=n, edge_budget=len(edges), master_seed=7, **fields)
    return _net(n, edges), sc, 1


_PATH_6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]


@settings(max_examples=100, deadline=None)
@given(_si_cases(), st.lists(_UNIT, min_size=1, max_size=6))
@example(_ladder_case(6, _PATH_6, seed_count=0), _LADDER)
@example(_ladder_case(6, _PATH_6, horizon=0), _LADDER)
@example(_ladder_case(6, _PATH_6, horizon=6, distance_cap=2), _LADDER)
def test_run_si_ladder_rows_equal_their_own_runs(case, ladder):
    net, sc, _ = case
    stream = RngPolicy(sc.master_seed).counter_stream("infection", 0)
    traces = run_si(net, sc, stream, ladder)
    assert len(traces) == len(ladder)
    for tau, trace in zip(ladder, traces):
        [alone] = run_si(net, sc, stream, [tau])
        ref = oracles.run_si(net, sc, stream, tau)
        for other in (alone, ref):
            assert np.array_equal(trace.seeds, other.seeds)
            assert np.array_equal(trace.distances, other.distances)
            assert np.array_equal(trace.status, other.status)


def test_run_si_rejects_an_empty_ladder():
    net, sc, _ = _ladder_case(6, _PATH_6)
    with pytest.raises(ValueError, match="taus"):
        run_si(net, sc, RngPolicy(0).counter_stream("infection", 0), taus=[])


@pytest.mark.parametrize("tau", [0.1, 0.4, 1.0])
def test_run_si_matches_dense_oracle_on_generated_net(tau):
    sc, policy, pop, net = _generated(5, transmissibility=tau, horizon=8, distance_cap=4)
    stream = policy.counter_stream("infection", 2)
    [ours] = run_si(net, sc, stream)
    ref = oracles.run_si(net, sc, stream)
    assert np.array_equal(ours.distances, ref.distances)
    assert np.array_equal(ours.status, ref.status)


# ---------------------------------------------------------------------------
# Infection accounting


def test_infection_by_distance_star():
    n = 8
    star = _net(n, [(0, v) for v in range(1, n)])
    sc = Scenario(node_count=n, edge_budget=n - 1, transmissibility=1.0,
                  horizon=2, distance_cap=2, master_seed=0)
    [trace] = run_si(star, sc, RngPolicy(0).counter_stream("infection", 0))
    table = infection_by_distance(trace)
    assert table[0, 0] == 1 and table[0, 1] == 0
    assert table[1, 0] == 1 and table[1, 1] == n - 1
    assert table.shape == (3, 3)


def test_infection_by_distance_zero_tau():
    sc, policy, pop, net = _generated(5, transmissibility=0.0)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    table = infection_by_distance(trace)
    assert (table[:, 0] == 1).all()
    assert (table[:, 1:] == 0).all()


def _p7_trace():
    # path of 7 at full transmissibility: the seed is node 1, the lowest id
    # of degree 2, so node 0 is at distance 1 and node v > 1 at v - 1
    edges = [(v, v + 1) for v in range(6)]
    net = _net(7, edges)
    pop = Population(np.array([80, 10, 20, 30, 40, 50, 60]))
    sc = Scenario(node_count=7, edge_budget=6, transmissibility=1.0, horizon=6,
                  distance_cap=6, master_seed=0)
    [trace] = run_si(net, sc, RngPolicy(0).counter_stream("infection", 0))
    return pop, trace


def test_infection_by_distance_path():
    _, trace = _p7_trace()
    table = infection_by_distance(trace)
    assert table[2, 0] == 1 and table[2, 1] == 2 and table[2, 2] == 1
    assert table[2, 3] == 0


def test_par_hand_values():
    _, trace = _p7_trace()
    matrix = par_matrix(trace)
    assert matrix[0, 0] == pytest.approx(1 / 7, abs=1e-12)
    assert matrix[1, 1] == pytest.approx(3 / 7, abs=1e-12)
    assert matrix[2, 2] == pytest.approx(4 / 7, abs=1e-12)
    assert matrix[6, 6] == pytest.approx(1.0, abs=1e-12)


def test_par_complete_graph_one_step():
    n = 5
    net = _net(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    sc = Scenario(node_count=n, edge_budget=10, transmissibility=1.0, horizon=2,
                  distance_cap=2, master_seed=0)
    [trace] = run_si(net, sc, RngPolicy(0).counter_stream("infection", 0))
    assert par_matrix(trace)[1, 1] == 1.0


def test_par_window_validation():
    pop, trace = _p7_trace()
    with pytest.raises(ValueError):
        par_by_group(trace, pop, 1, 2)  # distance beyond time
    with pytest.raises(ValueError):
        par_by_group(trace, pop, 7, 2)  # beyond horizon
    with pytest.raises(ValueError):
        par_by_group(trace, pop, 6, 7)  # beyond distance cap


def test_par_monotone_in_time_and_distance():
    sc, policy, pop, net = _generated(8, transmissibility=0.5)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    matrix = par_matrix(trace)
    for d in range(sc.distance_cap + 1):
        values = [matrix[t, d] for t in range(d, sc.horizon + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    for t in range(sc.horizon + 1):
        values = [matrix[t, d] for d in range(0, min(t, sc.distance_cap) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_par_mean_monotone_in_transmissibility():
    # common random numbers couple the runs, so the wave can only widen
    sc, policy, pop, net = _generated(10)
    taus = (0.2, 0.4, 0.6, 0.8, 1.0)
    vals = [
        [par_matrix(trace)[6, 6]
         for trace in run_si(net, sc, policy.counter_stream("infection", r), taus)]
        for r in range(10)
    ]
    means = np.mean(vals, axis=0)
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_par_matrix_shape_and_nan_cells():
    _, trace = _p7_trace()
    matrix = par_matrix(trace)
    assert matrix.shape == (7, 7)
    assert np.isnan(matrix[0, 1])
    assert matrix[2, 2] == pytest.approx(4 / 7)


def test_par_by_group_identity():
    sc, policy, pop, net = _generated(12, transmissibility=0.6)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    groups = par_by_group(trace, pop, 6, 6)
    sizes = np.bincount(pop.groups, minlength=9)
    assert ((groups >= 0) & (groups <= 1)).all()
    total = (groups * sizes).sum()
    assert total == pytest.approx(90 * par_matrix(trace)[6, 6], abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.integers(0, 5),
    cap=st.integers(0, 14),
    nodes=st.lists(
        st.tuples(st.integers(-1, 6), st.integers(0, 13), st.integers(0, AGE_SPAN - 1)),
        min_size=1,
        max_size=12,
    ),
)
@example(horizon=2, cap=9, nodes=[(1, 1, 5), (-1, 2, 45), (2, 13, 47)])  # no seeds
@example(horizon=0, cap=0, nodes=[(0, 0, 89)])
def test_par_reads_match_the_per_window_oracle(horizon, cap, nodes):
    # Each node is (first infection step, seed distance, age); a step
    # beyond the horizon means never infected, a distance of n or more is
    # the unreachable sentinel. cap ranges past the horizon and past n.
    n = len(nodes)
    first, dist, ages = (np.array(col) for col in zip(*nodes))
    first = np.where(first <= horizon, first, -1)
    status = (first >= 0) & (np.arange(horizon + 1)[:, None] >= first)
    trace = EpidemicTrace(status=status, distances=np.minimum(dist, n), distance_cap=cap)
    pop = Population(ages)
    matrix = par_matrix(trace)
    assert np.array_equal(matrix, oracles.par_matrix(trace), equal_nan=True)
    final_d = min(cap, horizon)
    report = risk_report(trace, pop, _net(n, []))
    assert report["final_share"] == oracles.par(trace, horizon, final_d)
    for t in range(horizon + 1):
        for d in range(min(t, cap) + 1):
            assert matrix[t, d] == oracles.par(trace, t, d)
            assert np.array_equal(
                par_by_group(trace, pop, t, d),
                oracles.par_by_group(trace, pop, t, d),
                equal_nan=True,
            )


def test_risk_report_structure():
    sc, policy, pop, net = _generated(13)
    [trace] = run_si(net, sc, policy.counter_stream("infection", 0))
    report = risk_report(trace, pop, net)
    assert report["seeds"] == [int(s) for s in trace.seeds]
    assert report["seed_degrees"] == [int(net.degrees[s]) for s in trace.seeds]
    assert len(report["par"]) == sc.horizon + 1
    assert report["par"][0][1] is None  # invalid window
    assert 0.0 <= report["final_share"] <= 1.0
    assert len(report["par_by_group"]) == 9
    assert len(report["infection_by_distance"]) == sc.horizon + 1


def test_trace_validation():
    status = np.zeros((3, 4), bool)
    status[0, [1, 3]] = status[1:, [0, 1, 3]] = True
    trace = EpidemicTrace(status=status, distances=np.zeros(4), distance_cap=2)
    assert trace.horizon == 2  # read from the status rows
    assert trace.seeds.tolist() == [1, 3]  # and the seeds from row 0
    with pytest.raises(ValueError, match="node count"):
        EpidemicTrace(status=np.zeros((3, 4), bool), distances=np.zeros(5), distance_cap=2)
    for status in (np.zeros(4, bool), np.zeros((0, 4), bool)):  # no seed row
        with pytest.raises(ValueError, match="at least one row"):
            EpidemicTrace(status=status, distances=np.zeros(4), distance_cap=2)
