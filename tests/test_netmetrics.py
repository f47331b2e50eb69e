"""Pattern extraction, divergence and summary statistics."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefnet import netmetrics
from prefnet.features import make_population
from prefnet.netgen import ba_target, generate_network, NetworkSnapshot, pair_draws
from prefnet.netmetrics import (
    analyze,
    clustering_values,
    degree_distribution,
    js_divergence,
    PatternDistribution,
    shortest_path_matrix,
    support_union,
)
from prefnet.scenario import RngPolicy, Rule, Scenario


def _net(node_count, edges):
    edges = np.array(sorted(tuple(sorted(e)) for e in edges), dtype=np.int64)
    return NetworkSnapshot(node_count, edges, np.ones(len(edges)))


def _sample_net(seed=0):
    sc = Scenario(master_seed=seed)
    pop = make_population(sc)
    return generate_network(pop, sc, pair_draws(sc))


def _to_nx(net):
    g = nx.Graph()
    g.add_nodes_from(range(net.node_count))
    g.add_edges_from(tuple(e) for e in net.edges)
    return g


def test_pattern_distribution_validation():
    with pytest.raises(ValueError):
        PatternDistribution("degree", [0, 1], [0.5])  # length mismatch
    with pytest.raises(ValueError):
        PatternDistribution("degree", [1, 0], [0.5, 0.5])  # unsorted support
    with pytest.raises(ValueError):
        PatternDistribution("degree", [0, 1], [0.7, 0.5])  # sums over 1
    with pytest.raises(ValueError):
        PatternDistribution("degree", [0, 1], [-0.2, 1.2])  # negative mass


def test_degree_distribution_hand_graph():
    # triangle 0-1-2 plus isolated node 3
    net = _net(4, [(0, 1), (1, 2), (0, 2)])
    dist = degree_distribution(net)
    assert np.array_equal(dist.support, np.arange(4))
    assert np.allclose(dist.mass, [0.25, 0.0, 0.75, 0.0])
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_clustering_hand_graphs():
    triangle = _net(3, [(0, 1), (1, 2), (0, 2)])
    assert np.allclose(clustering_values(triangle), 1.0)
    path3 = _net(3, [(0, 1), (1, 2)])
    assert np.allclose(clustering_values(path3), 0.0)  # ends deg < 2, middle open
    # K4 minus one edge: deg-2 nodes close their single pair, deg-3 nodes 2/3
    k4m = _net(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert np.allclose(clustering_values(k4m), [2 / 3, 2 / 3, 1.0, 1.0])


def test_clustering_matches_networkx_on_generated_net():
    net = _sample_net(3)
    ours = clustering_values(net)
    theirs = nx.clustering(_to_nx(net))
    for v in range(net.node_count):
        assert ours[v] == pytest.approx(theirs[v], abs=1e-9)


def test_clustering_distribution_bins():
    net = _net(3, [(0, 1), (1, 2), (0, 2)])
    dist = analyze(net).clustering
    assert dist.support.shape == (20,)
    assert dist.mass[-1] == 1.0  # coefficient 1.0 falls in the closed last bin
    path3 = _net(3, [(0, 1), (1, 2)])
    dist = analyze(path3).clustering
    assert dist.mass[0] == 1.0


def test_shortest_paths_path_graph():
    net = _net(4, [(0, 1), (1, 2), (2, 3)])
    matrix = shortest_path_matrix(net)
    expected = np.array(
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    )
    assert np.array_equal(matrix, expected)
    assert (matrix == matrix.T).all()
    assert analyze(net).summary.fake_paths == 0


def test_shortest_paths_disconnected_sentinel():
    # two disjoint edges: 4 cross pairs have no path
    net = _net(4, [(0, 1), (2, 3)])
    matrix = shortest_path_matrix(net)
    patterns = analyze(net)
    dist = patterns.path_length
    assert matrix[0, 2] == 4 and matrix[1, 3] == 4  # sentinel = node count
    assert patterns.summary.fake_paths == 4
    assert np.array_equal(dist.support, [1, 4])
    assert np.allclose(dist.mass, [2 / 6, 4 / 6])


def test_shortest_paths_match_networkx():
    net = _sample_net(5)
    matrix = shortest_path_matrix(net)
    lengths = dict(nx.all_pairs_shortest_path_length(_to_nx(net)))
    n = net.node_count
    for i in range(n):
        for j in range(n):
            expected = lengths[i].get(j, n)  # unreachable -> sentinel
            assert matrix[i, j] == expected


def _nx_path_matrix(net):
    """networkx all-pairs BFS lengths, sentinel n where unreachable."""
    n = net.node_count
    expected = np.full((n, n), n, dtype=np.int64)
    for source, lengths in nx.all_pairs_shortest_path_length(_to_nx(net)):
        expected[source, list(lengths)] = list(lengths.values())
    return expected


def _random_graph(n, kind, density, isolate, seed):
    """Graph on n nodes: 'random' keeps each pair with the given density,
    'pieces' does too but never across a random split into three parts,
    'chain' is one path through all nodes in random order, 'empty' has no
    edges. isolate cuts every edge of a random third of the nodes."""
    rng = np.random.default_rng(seed)
    if kind == "chain":
        order = rng.permutation(n)
        pairs = np.column_stack((order[:-1], order[1:]))
    else:
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.shape[0]) < (0.0 if kind == "empty" else density)
        if kind == "pieces":
            part = rng.integers(0, 3, n)
            keep &= part[iu] == part[ju]
        pairs = np.column_stack((iu[keep], ju[keep]))
    if isolate:
        cut = rng.random(n) < 1 / 3
        pairs = pairs[~(cut[pairs[:, 0]] | cut[pairs[:, 1]])]
    return _net(n, pairs.tolist())


_GRAPH_CASES = dict(
    n=st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65, 128, 129]), st.integers(0, 150)),
    kind=st.sampled_from(["random", "pieces", "chain", "empty"]),
    density=st.sampled_from([0.005, 0.02, 0.05, 0.2, 0.6]),
    isolate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(**_GRAPH_CASES)
@example(n=63, kind="random", density=0.05, isolate=False, seed=1)
@example(n=64, kind="pieces", density=0.2, isolate=True, seed=2)
@example(n=65, kind="chain", density=0.0, isolate=False, seed=3)
@example(n=128, kind="random", density=0.02, isolate=True, seed=4)
@example(n=129, kind="chain", density=0.0, isolate=True, seed=5)
@example(n=150, kind="chain", density=0.0, isolate=False, seed=6)
@example(n=0, kind="empty", density=0.0, isolate=False, seed=7)
@example(n=100, kind="empty", density=0.0, isolate=False, seed=8)
# Dense graphs over several source blocks, where every block stops as soon
# as each node has seen all of its sources; with a third of the nodes cut
# off no block can stop early, and the last block, which pushes its first
# level, holds degree-0 sources (node 128 at n=129; 2 of 192..199 at n=200).
@example(n=129, kind="random", density=0.6, isolate=False, seed=9)
@example(n=200, kind="random", density=0.6, isolate=False, seed=9)
@example(n=129, kind="random", density=0.6, isolate=True, seed=10)
@example(n=200, kind="random", density=0.6, isolate=True, seed=9)
def test_shortest_path_matrix_matches_networkx(n, kind, density, isolate, seed):
    net = _random_graph(n, kind, density, isolate, seed)
    matrix = shortest_path_matrix(net)
    assert matrix.dtype == np.min_scalar_type(n) and matrix.shape == (n, n)
    assert np.array_equal(matrix, _nx_path_matrix(net))


@settings(max_examples=120, deadline=None)
@given(**_GRAPH_CASES)
@example(n=63, kind="random", density=0.6, isolate=False, seed=1)
@example(n=64, kind="pieces", density=0.2, isolate=True, seed=2)
@example(n=65, kind="random", density=0.6, isolate=True, seed=3)
@example(n=128, kind="random", density=0.2, isolate=True, seed=4)
@example(n=129, kind="pieces", density=0.6, isolate=False, seed=5)
@example(n=0, kind="empty", density=0.0, isolate=False, seed=7)
@example(n=100, kind="empty", density=0.0, isolate=False, seed=8)
def test_clustering_values_match_networkx(n, kind, density, isolate, seed):
    net = _random_graph(n, kind, density, isolate, seed)
    theirs = nx.clustering(_to_nx(net))
    assert clustering_values(net).tolist() == [theirs[v] for v in range(n)]


@pytest.mark.parametrize("cut", [False, True])
def test_dense_blocks_push_level_one_and_stop_after_level_two(monkeypatch, cut):
    # n = 320 at density 0.6 has diameter 2, and each of its five blocks
    # holds a fifth of the neighbour entries: level 1 pushes from the
    # block's own lists, level 2 pulls, and the block stops there. With
    # one node cut off, no block can stop early, so each pulls a third,
    # empty level.
    net = _random_graph(320, "random", 0.6, False, 11)
    if cut:
        keep = (net.edges != 0).all(axis=1)
        net = NetworkSnapshot(320, net.edges[keep], net.gamma[keep])
    pulls = []
    real = netmetrics._pull
    monkeypatch.setattr(netmetrics, "_pull", lambda *args: pulls.append(1) or real(*args))
    matrix = shortest_path_matrix(net)
    adjacency = np.zeros((320, 320), dtype=np.int64)
    adjacency[net.edges[:, 0], net.edges[:, 1]] = adjacency[net.edges[:, 1], net.edges[:, 0]] = 1
    expected = np.where(adjacency @ adjacency > 0, 2, 320)
    expected[adjacency == 1] = 1
    np.fill_diagonal(expected, 0)
    assert np.array_equal(matrix, expected)
    assert (matrix[1:, 1:] <= 2).all()
    assert len(pulls) == (10 if cut else 5)


def test_shortest_path_matrix_on_sparse_h_minus_net():
    # the H- rule links similar ages, so a budget of one edge per node
    # grows long chains, many pieces and isolated nodes
    sc = Scenario(node_count=300, edge_budget=300, rule=Rule.H_MINUS, master_seed=0)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    matrix = shortest_path_matrix(net)
    assert np.array_equal(matrix, _nx_path_matrix(net))
    assert matrix[matrix < 300].max() > 15 and (matrix == 300).any()


def test_js_divergence_identical_and_disjoint():
    p = PatternDistribution("degree", [0, 1, 2], [0.2, 0.3, 0.5])
    assert js_divergence(p, p) == 0.0
    q = PatternDistribution("degree", [5, 6], [0.4, 0.6])
    assert js_divergence(p, q) == pytest.approx(1.0, abs=1e-12)


def test_js_divergence_hand_value():
    p = PatternDistribution("degree", [0, 1], [1.0, 0.0])
    q = PatternDistribution("degree", [0, 1], [0.5, 0.5])
    # independent oracle: direct formula in base 2
    m = [0.75, 0.25]
    expected = 0.5 * (1.0 * math.log2(1.0 / m[0])) + 0.5 * (
        0.5 * math.log2(0.5 / m[0]) + 0.5 * math.log2(0.5 / m[1])
    )
    assert expected == pytest.approx(0.31127812445913283, abs=1e-12)
    assert js_divergence(p, q) == pytest.approx(expected, abs=1e-12)


def test_js_divergence_symmetric_and_padded():
    p = PatternDistribution("degree", [0, 2], [0.5, 0.5])
    q = PatternDistribution("degree", [0, 1, 3], [0.25, 0.5, 0.25])
    assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-12)
    assert 0.0 <= js_divergence(p, q) <= 1.0


_SUPPORT = st.sets(st.integers(-5, 60), max_size=30).map(
    lambda values: np.array(sorted(values), dtype=np.int64)
)


@settings(max_examples=200, deadline=None)
@given(_SUPPORT, _SUPPORT)
def test_support_union_equals_union1d(a, b):
    union = support_union(a, b)
    assert union.dtype == np.int64
    assert np.array_equal(union, np.union1d(a, b))


def test_js_divergence_of_empty_patterns():
    empty = PatternDistribution("degree", [], [])
    assert js_divergence(empty, empty) == 0.0


def test_js_divergence_kind_mismatch():
    p = PatternDistribution("degree", [0], [1.0])
    q = PatternDistribution("clustering", [0], [1.0])
    with pytest.raises(ValueError):
        js_divergence(p, q)


def test_summarize_empty_graph():
    n = 6
    net = _net(n, [])
    stats = analyze(net).summary
    assert stats.connected_count == 0
    assert stats.unconnected_count == n
    assert stats.degree_avg == 0.0 and stats.degree_max == 0
    assert stats.clustering_avg == 0.0
    assert stats.fake_paths == n * (n - 1) // 2
    assert stats.path_avg == n  # every pair at the sentinel length
    assert stats.path_std == 0.0
    assert stats.path_min == n and stats.path_max == n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1])
def test_summarize_network_without_pairs(n):
    # No pair of nodes: the path figures read 0 and the path pattern is
    # empty, without a warning; so is every pattern of an empty network.
    patterns = analyze(_net(n, []))
    stats = patterns.summary
    assert (stats.node_count, stats.unconnected_count, stats.clustering_avg) == (n, n, 0.0)
    assert (stats.fake_paths, stats.path_avg, stats.path_std) == (0, 0.0, 0.0)
    assert (stats.path_max, stats.path_min) == (0, 0)
    assert patterns.path_length.support.size == 0 and patterns.path_length.mass.size == 0
    assert patterns.degree.mass.tolist() == [1.0] * n
    assert patterns.clustering.mass.tolist() == ([1.0] + [0.0] * 19) * n


def test_summarize_complete_graph():
    n = 5
    net = _net(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    stats = analyze(net).summary
    assert stats.unconnected_count == 0
    assert stats.degree_avg == n - 1
    assert stats.degree_std == 0.0
    assert stats.clustering_avg == 1.0
    assert stats.fake_paths == 0
    assert stats.path_avg == 1.0 and stats.path_max == 1


def test_summarize_matches_networkx_on_generated_net():
    net = _sample_net(7)
    patterns = analyze(net)
    stats = patterns.summary
    g = _to_nx(net)
    degrees = np.array([d for _, d in g.degree()])
    assert stats.degree_avg == pytest.approx(degrees.mean(), abs=1e-9)
    assert stats.degree_std == pytest.approx(degrees.std(), abs=1e-9)
    assert stats.degree_max == degrees.max() and stats.degree_min == degrees.min()
    assert stats.clustering_avg == pytest.approx(
        sum(nx.clustering(g).values()) / net.node_count, abs=1e-9
    )
    # path stats with unreachable pairs at the sentinel length
    n = net.node_count
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    pair_lengths = [
        lengths[i].get(j, n) for i in range(n) for j in range(i + 1, n)
    ]
    assert stats.path_avg == pytest.approx(np.mean(pair_lengths), abs=1e-9)
    assert stats.fake_paths == sum(1 for x in pair_lengths if x == n)
    # the distributions come from the same pass as the summary
    support, counts = np.unique(pair_lengths, return_counts=True)
    assert np.array_equal(patterns.path_length.support, support)
    assert np.allclose(patterns.path_length.mass, counts / len(pair_lengths))
    assert np.array_equal(patterns.degree.mass, degree_distribution(net).mass)
    assert patterns.clustering.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_degree_distribution_of_full_scale_net_sums_to_one():
    net = _sample_net(1)
    dist = degree_distribution(net)
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.support.shape == (90,)
    ba = ba_target(90, 20, RngPolicy(1).stream("optimizer", 0))
    value = js_divergence(dist, degree_distribution(ba))
    assert 0.0 <= value <= 1.0
