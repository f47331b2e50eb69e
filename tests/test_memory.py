"""Memory bounds of the stages that scale with network size.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call counts every array it builds. An n x n float64 or int64 array alone
takes 8 n^2 bytes.
"""

import tracemalloc

import numpy as np

from prefnet import netgen, netmetrics
from prefnet.epidemic import run_si
from prefnet.features import make_population
from prefnet.netgen import ba_target, generate_network, NetworkSnapshot, pair_draws, save_network
from prefnet.netmetrics import (
    analyze,
    clustering_values,
    degree_distribution,
    shortest_path_matrix,
)
from prefnet.optimizer import evaluate, replicate_draws
from prefnet.scenario import RngPolicy, Scenario

N = 600


def _paper_density(n: int) -> Scenario:
    """The paper's edge density, 1400 edges on 90 nodes, at n nodes."""
    return Scenario(node_count=n, edge_budget=round(1400 / (90 * 89 // 2) * (n * (n - 1) // 2)))


def _paper_density_net(n: int = N) -> NetworkSnapshot:
    """A generated network at the paper's density."""
    sc = _paper_density(n)
    return generate_network(make_population(sc), sc, pair_draws(sc))


def _traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of fn(*args), above what was live before.
    Callers run fn once beforehand on a small input, so that lazy imports
    (np.unique loads numpy.ma on first use) do not count."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_clustering_builds_no_dense_matrix():
    clustering_values(_paper_density_net(90))
    assert _traced_peak(clustering_values, _paper_density_net()) < 8 * N * N


def test_analyze_builds_no_dense_int64_or_float64_matrix():
    analyze(_paper_density_net(90))
    assert _traced_peak(analyze, _paper_density_net()) < 8 * N * N


def _fit_draws_and_one_evaluate(scenario: Scenario):
    target = degree_distribution(ba_target(90, 20, RngPolicy(0).stream("optimizer", 0)))
    draws = replicate_draws(scenario, 5, target)
    evaluate(scenario.resolved_preference(), draws)
    return draws


def test_fit_memory_per_padded_slot():
    # The prepared draws keep 18 bytes per padded slot: the pair draws'
    # jitter 8 and two int32 endpoints, and the int16 slot among the age
    # codes in use. Building them adds the int16 age codes and their
    # index conversions, and one evaluate adds the scores, their partition
    # and the masks. Measured: 35.2 bytes per slot at n = 600 (5 x 143974
    # slots); the bound is 1.5 times that.
    _fit_draws_and_one_evaluate(_paper_density(90))
    draws = _fit_draws_and_one_evaluate(_paper_density(N))
    pairs = draws.pairs
    kept = draws.slot.nbytes + pairs.jitter.nbytes + pairs.i.nbytes + pairs.j.nbytes
    assert kept == 18 * draws.slot.size
    peak = _traced_peak(_fit_draws_and_one_evaluate, _paper_density(N))
    assert peak < 53 * draws.slot.size


def _si_ladder(rows: int):
    """A run_si call over `rows` transmissibilities at N and the paper's
    density, ready to trace."""
    sc = _paper_density(N)
    pop = make_population(sc)
    net = generate_network(pop, sc, pair_draws(sc))
    stream = RngPolicy(0).counter_stream("infection", 0)
    taus = np.linspace(0.2, 1.0, rows)
    return lambda: run_si(net, sc, stream, taus)


def test_si_ladder_shares_one_neighbour_list():
    # Each row keeps its own status and exposures (O(R n) each) and one
    # p1, but no row copies the 2E-entry neighbour list or a mask over it.
    # Measured at N = 600: 2.05 MB for one row, 2.12 MB for five.
    _si_ladder(5)()
    one, five = _traced_peak(_si_ladder(1)), _traced_peak(_si_ladder(5))
    assert five < 2 * one


def test_save_network_memory_does_not_grow_with_edges(tmp_path):
    rng = np.random.default_rng(0)
    n = 1000
    pairs = np.column_stack(np.triu_indices(n, 1))

    def net(edge_count):
        keep = np.sort(rng.choice(pairs.shape[0], edge_count, replace=False))
        return NetworkSnapshot(n, pairs[keep], rng.random(edge_count))

    small, large = net(40_000), net(160_000)
    save_network(net(100), tmp_path / "warm.csv")
    small_peak = _traced_peak(save_network, small, tmp_path / "small.csv")
    large_peak = _traced_peak(save_network, large, tmp_path / "large.csv")
    assert large_peak < 1.5 * small_peak


def _star_with_last_hub(leaves: int) -> NetworkSnapshot:
    """A star whose hub is the highest id, so one list holds most entries."""
    edges = np.column_stack((np.arange(leaves), np.full(leaves, leaves)))
    return NetworkSnapshot(leaves + 1, edges, np.ones(leaves))


def test_small_blocks_give_the_same_results(tmp_path, monkeypatch):
    sc = Scenario(node_count=70, edge_budget=900, master_seed=4)
    pop = make_population(sc)

    def run(out):
        draws = pair_draws(sc, 3)
        net = generate_network(pop, sc, pair_draws(sc))
        save_network(net, out)
        star = _star_with_last_hub(40)
        return (draws, net, out.read_bytes(), clustering_values(net),
                shortest_path_matrix(net), shortest_path_matrix(star))

    whole = run(tmp_path / "whole.csv")
    monkeypatch.setattr(netgen, "_DRAW_BLOCK", 3 * 70)  # 3 rows, then 1
    monkeypatch.setattr(netgen, "_WRITE_BLOCK", 3)
    monkeypatch.setattr(netmetrics, "_TRIANGLE_BLOCK", 5)
    monkeypatch.setattr(netmetrics, "_GATHER_BLOCK", 4)
    blocked = run(tmp_path / "blocked.csv")
    for a, b in zip(whole[0].__dict__.values(), blocked[0].__dict__.values()):
        assert np.array_equal(a, b)
    assert np.array_equal(whole[1].edges, blocked[1].edges)
    assert np.array_equal(whole[1].gamma, blocked[1].gamma)
    assert whole[2] == blocked[2]
    for a, b in zip(whole[3:], blocked[3:]):
        assert np.array_equal(a, b)
    star_paths = blocked[-1]
    assert star_paths[:40, 40].tolist() == [1] * 40 and star_paths[0, 1:40].tolist() == [2] * 39
