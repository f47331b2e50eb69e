"""End-to-end acceptance checks.

Each test prints one `[criterion NN] PASS/FAIL - label` line so the suite
doubles as a checklist when run with `pytest -s tests/test_acceptance.py`.
"""

import json
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

from prefnet.cli import main
from prefnet.epidemic import par_matrix, run_si, select_seeds
from prefnet.features import (
    SHAPE_TEMPLATES, hill_number, make_population,
)
from prefnet.netgen import (
    NetworkSnapshot,
    ba_target,
    edge_strength,
    generate_network,
    pair_draws,
)
from prefnet.netmetrics import clustering_values, degree_distribution
from prefnet.optimizer import evaluate, optimize, replicate_draws
from prefnet.scenario import (
    RULE_PREFERENCES,
    SHAPE_CODES,
    AgeShape,
    RngPolicy,
    Rule,
    Scenario,
)

from oracles import Traits, homophily_score, preferential_score, transition_probability

TAU_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
SHAPES = tuple(AgeShape)
RULES = tuple(Rule)


_RESULTS = []  # echoed by conftest in the terminal summary


@contextmanager
def _verdict(num, label):
    """Print the criterion's PASS or FAIL line; findings the block appends
    to the list it is given follow the label."""
    findings = []

    def report(verdict):
        detail = f" ({'; '.join(findings)})" if findings else ""
        _RESULTS.append(f"[criterion {num:02d}] {verdict} - {label}{detail}")
        print(_RESULTS[-1], flush=True)

    try:
        yield findings
    except BaseException:
        report("FAIL")
        raise
    report("PASS")


_BUILT = {}


def _build(shape, rule, master_seed, **overrides):
    """Replicate-0 network + population for one paradigm, memoised."""
    key = (shape, rule, master_seed, tuple(sorted(overrides.items())))
    if key not in _BUILT:
        sc = Scenario(age_shape=shape, rule=rule, master_seed=master_seed,
                      **overrides)
        pop = make_population(sc)
        net = generate_network(pop, sc, pair_draws(sc))
        _BUILT[key] = (sc, pop, net)
    return _BUILT[key]


def _bfs_ball(net, sources, radius):
    """Nodes within `radius` hops of any source, by plain queue BFS."""
    neighbours = [[] for _ in range(net.node_count)]
    for i, j in net.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    dist = {int(s): 0 for s in sources}
    queue = deque(int(s) for s in sources)
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in neighbours[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return set(dist)


def test_criterion_01_edge_and_degree_conservation():
    with _verdict(1, "full encounter rate spends the edge budget exactly"):
        start = time.perf_counter()
        _, _, net = _build(AgeShape.UNIFORM, Rule.PH, 0, encounter_rate=1.0)
        elapsed = time.perf_counter() - start
        assert net.edge_count == 1400
        mean = float(net.degrees.mean())
        assert abs(mean - 2 * 1400 / 90) < 1e-12
        assert round(mean, 2) == 31.11
        assert elapsed < 1.0, f"generation took {elapsed:.2f}s"


def test_criterion_02_scale_free_target():
    with _verdict(2, "scale-free target matches published degree spread"):
        stds = []
        for seed in range(20):
            net = ba_target(90, 20, RngPolicy(seed).stream("optimizer", 0))
            assert net.edge_count == 1400
            assert abs(net.degrees.mean() - 2 * 1400 / 90) < 1e-12
            stds.append(float(net.degrees.std()))
        low, high = 12.90 * 0.75, 12.90 * 1.25
        for s in stds:
            assert low <= s <= high, f"degree std {s:.3f} outside [{low}, {high}]"
        assert low <= np.mean(stds) <= high


def test_criterion_03_diversity_profiles():
    with _verdict(3, "age diversity profiles behave across shapes"):
        for shape, template in SHAPE_TEMPLATES.items():
            assert hill_number(template, 0.0) == 9.0, shape
        for q in np.arange(0.0, 9.5, 0.5):
            assert abs(hill_number(SHAPE_TEMPLATES[AgeShape.UNIFORM], q) - 9) < 1e-9
        at2 = {s: hill_number(t, 2.0) for s, t in SHAPE_TEMPLATES.items()}
        assert (at2[AgeShape.UNIFORM] >= at2[AgeShape.INVERSE_BELL]
                >= at2[AgeShape.BELL] >= at2[AgeShape.LEFT_SKEWED])
        assert at2[AgeShape.BELL] >= at2[AgeShape.RIGHT_SKEWED]
        assert abs(at2[AgeShape.UNIFORM] - 9.0) < 1e-9
        assert abs(at2[AgeShape.INVERSE_BELL] - 8100 / 1078) < 1e-9
        assert abs(at2[AgeShape.BELL] - 8100 / 1224) < 1e-9
        assert abs(at2[AgeShape.LEFT_SKEWED] - 8100 / 1474) < 1e-9
        assert abs(at2[AgeShape.RIGHT_SKEWED] - 8100 / 1474) < 1e-9


def test_criterion_04_rule_phenomenology():
    with _verdict(4, "connection rules reproduce connectivity and clustering"):
        seeds = range(5)
        for seed in seeds:
            for rule in (Rule.H_MINUS, Rule.H_PLUS, Rule.PH):
                _, _, net = _build(AgeShape.UNIFORM, rule, seed)
                assert int((net.degrees == 0).sum()) == 0, (rule, seed)
            for rule in (Rule.P_PLUS, Rule.P_MINUS):
                _, _, net = _build(AgeShape.UNIFORM, rule, seed)
                assert int((net.degrees == 0).sum()) >= 1, (rule, seed)
        shapes_won = 0
        for shape in SHAPES:
            similar, dissimilar = [], []
            for seed in seeds:
                _, _, net = _build(shape, Rule.H_MINUS, seed)
                similar.append(float(np.mean(clustering_values(net))))
                _, _, net = _build(shape, Rule.H_PLUS, seed)
                dissimilar.append(float(np.mean(clustering_values(net))))
            if np.mean(similar) > np.mean(dissimilar):
                shapes_won += 1
        assert shapes_won >= 4, f"similar-seeking beat dissimilar in {shapes_won}/5"


def test_criterion_05_divergence_dominance():
    with _verdict(5, "fitted mixed rule beats every pure rule on divergence"):
        sc = Scenario()
        target = degree_distribution(ba_target(90, 20,
                                               RngPolicy(0).stream("optimizer", 0)))
        start = time.perf_counter()
        draws = replicate_draws(sc, 5, target)
        result = optimize(draws, budget=700)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"optimisation took {elapsed:.1f}s"
        assert len(result.log) <= 700
        assert result.objective <= 0.45
        for rule, pref in RULE_PREFERENCES.items():
            pure_mean, _ = evaluate(pref, draws)
            assert result.objective < pure_mean, (rule, pure_mean)


def test_criterion_06_epidemic_frontier_oracle():
    with _verdict(6, "certain transmission spreads exactly one hop per step"):
        for shape in SHAPES:
            for rule in RULES:
                for seed in range(5):
                    sc, _, net = _build(shape, rule, seed, transmissibility=1.0)
                    [trace] = run_si(net, sc, RngPolicy(seed).counter_stream("infection", 0))
                    for t in range(sc.horizon + 1):
                        expected = _bfs_ball(net, trace.seeds,
                                             min(t, sc.distance_cap))
                        infected = set(np.flatnonzero(trace.status[t]).tolist())
                        assert infected == expected, (shape, rule, seed, t)


def test_criterion_07_risk_monotonicity_and_saturation():
    with _verdict(7, "infection risk grows with window size and transmissibility"):
        # window monotonicity on a mid-transmissibility trace
        sc, _, net = _build(AgeShape.UNIFORM, Rule.PH, 0, transmissibility=0.6)
        [trace] = run_si(net, sc, RngPolicy(0).counter_stream("infection", 0))
        par = par_matrix(trace)
        for t in range(sc.horizon + 1):
            for d in range(min(t, sc.distance_cap) + 1):
                if t > 0 and d <= min(t - 1, sc.distance_cap):
                    assert par[t, d] >= par[t - 1, d]
                if d > 0:
                    assert par[t, d] >= par[t, d - 1]

        # mean risk over 30 replicates is non-decreasing in transmissibility
        for shape, rule in ((AgeShape.UNIFORM, Rule.PH),
                            (AgeShape.RIGHT_SKEWED, Rule.H_MINUS)):
            sc, _, net = _build(shape, rule, 0)
            values = [
                [par_matrix(trace)[sc.horizon, sc.distance_cap]
                 for trace in run_si(net, sc, RngPolicy(0).counter_stream("infection", r),
                                     TAU_GRID)]
                for r in range(30)
            ]
            means = np.mean(values, axis=0).tolist()
            assert all(b >= a - 1e-12 for a, b in zip(means, means[1:])), means

        # near-saturation from tau 0.4 up, pooled over every paradigm
        saturated = total = 0
        for shape in SHAPES:
            for rule in RULES:
                sc, _, net = _build(shape, rule, 0)
                for r in range(30):
                    stream = RngPolicy(0).counter_stream("infection", r)
                    for trace in run_si(net, sc, stream, TAU_GRID[1:]):
                        reachable = int((trace.distances <= sc.distance_cap).sum())
                        saturated += int(trace.infected_count(sc.horizon) == reachable)
                        total += 1
        rate = saturated / total
        assert rate >= 0.90, f"saturation rate {rate:.3f} over {total} runs"


def test_criterion_08_seed_selection():
    with _verdict(8, "seeding picks the highest-degree node, ties to lowest id"):
        for shape in SHAPES:
            for rule in RULES:
                _, _, net = _build(shape, rule, 0)
                (seed,) = select_seeds(net, 1)
                assert net.degrees[seed] == net.degrees.max(), (shape, rule)
        # two disjoint triangles: every degree equal, lowest id must win
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        tie_net = NetworkSnapshot(6, np.array(edges), np.ones(len(edges)))
        assert select_seeds(tie_net, 1).tolist() == [0]


def test_criterion_09_sweep_determinism(tmp_path):
    with _verdict(9, "repeated full sweeps are byte-identical"):
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            start = time.perf_counter()
            assert main(["sweep", "--out", str(out)]) == 0
            assert time.perf_counter() - start < 180.0
            runs.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            })
        first, second = runs
        assert set(first) == set(second)
        for rel in first:
            if rel.endswith("manifest.json"):
                a, b = json.loads(first[rel]), json.loads(second[rel])
                for timed in ("runtimes", "cell_runtimes"):
                    a.pop(timed), b.pop(timed)
                assert a == b
            else:
                assert first[rel] == second[rel], f"{rel} differs between runs"


def test_criterion_10_formula_anchors():
    with _verdict(10, "hand-derived formula values hold to 1e-12"):
        tol = 1e-12

        def traits(level, lw, diff, dw):
            return Traits(np.array([float(level)]), np.array([lw]),
                          np.array([float(diff)]), np.array([dw]))

        # level term
        inert = traits(1, 0.0, 1, 0.0)
        up, down = traits(1, 1.0, 1, 0.0), traits(-1, 1.0, 1, 0.0)
        assert abs(preferential_score(0.3, 0.9, inert, inert) - 1.0) < tol
        assert abs(preferential_score(0.2, 0.8, up, up) - 1.5) < tol
        assert abs(preferential_score(0.2, 0.8, down, down) - 0.5) < tol

        # difference term
        unlike, alike = traits(1, 0.0, 1, 1.0), traits(1, 0.0, -1, 1.0)
        assert abs(homophily_score(0.7, 0.7, alike, alike) - 1.0) < tol
        assert abs(homophily_score(0.2, 0.8, alike, alike) - 0.4) < tol
        assert abs(homophily_score(0.2, 0.8, unlike, unlike) - 1.6) < tol

        # edge strength map, plus consistency of every stored strength
        assert abs(edge_strength(0.0) - 0.5) < tol
        assert abs(edge_strength(2.0) - 1.0) < tol
        assert abs(edge_strength(-2.0) - 0.0) < tol
        sc, pop, net = _build(AgeShape.UNIFORM, Rule.PH, 0,
                              encounter_rate=1.0, noise_sigma=0.0)
        f, p = pop.ages / 90, sc.resolved_preference()
        a = p.level * p.level_weight
        b = p.difference * p.difference_weight
        i, j = net.edges[:, 0], net.edges[:, 1]
        level = (f[j] * a + f[i] * a) / 2 + 1
        gap = np.abs(f[i] - f[j])
        diff = (gap * b + gap * b) / 2 + 1
        total = 0.5 * level + 0.5 * diff
        assert np.max(np.abs(net.gamma - edge_strength(total))) < tol

        # transition probability with exposure aggregation
        assert transition_probability(0.2, 0) == 0.0
        assert abs(transition_probability(0.2, 2) - 0.36) < tol

        # population-at-risk windows on a path of 7, seeded at node 1 (the
        # lowest id of degree 2): 1, then 0 and 2, then 3 are infected
        path = NetworkSnapshot(7, np.array([(k, k + 1) for k in range(6)]),
                               np.ones(6))
        sc7 = Scenario(node_count=7, edge_budget=6, transmissibility=1.0)
        [trace7] = run_si(path, sc7, RngPolicy(0).counter_stream("infection", 0))
        assert trace7.seeds.tolist() == [1]
        par7 = par_matrix(trace7)
        assert abs(par7[0, 0] - 1 / 7) < tol
        assert abs(par7[1, 1] - 3 / 7) < tol
        assert abs(par7[2, 2] - 4 / 7) < tol
        complete = NetworkSnapshot(
            5, np.array([(i, j) for i in range(5) for j in range(i + 1, 5)]),
            np.ones(10))
        sc5 = Scenario(node_count=5, edge_budget=10, transmissibility=1.0)
        [trace5] = run_si(complete, sc5, RngPolicy(0).counter_stream("infection", 0))
        assert abs(par_matrix(trace5)[1, 1] - 1.0) < tol


def test_criterion_11_preferred_ages_carry_the_risk(tmp_path):
    # The paper's claim, read from the artifacts: under P+ (seek older
    # partners) the old decades (groups 6-8) have the higher mean PaR at
    # the widest window, under P- the young ones (groups 0-2). Tau 0.05,
    # since the default taus mostly saturate every group.
    with _verdict(11, "nodes with preferred features carry the higher infection risk"):
        for seed in range(10):
            out = tmp_path / str(seed)
            assert main(["sweep", "--rules", "P+,P-", "--taus", "0.05",
                         "--set", f"master_seed={seed}", "--out", str(out)]) == 0
            for shape in SHAPE_CODES:
                for rule in ("P+", "P-"):
                    risk = json.loads(
                        (out / "cells" / f"{shape}_{rule}" / "tau_0.05" / "risk.json").read_text()
                    )
                    groups = risk["par_by_group"]
                    young, old = np.mean(groups[0:3]), np.mean(groups[6:9])
                    preferred, other = (old, young) if rule == "P+" else (young, old)
                    assert preferred > other, (seed, shape, rule, young, old)


def test_criterion_12_targeted_immunisation():
    # Immunising 9 nodes (removing every edge that touches them) before an
    # outbreak at tau 0.05 lowers the final share more when they are drawn
    # from the preferred decades (groups 6-8 under P+, 0-2 under P-) than
    # when drawn from all nodes or from the opposite decades, and less than
    # immunising the 9 highest-degree nodes. Mean final share over each
    # rule's 3 shapes x 10 master seeds.
    shapes = (AgeShape.UNIFORM, AgeShape.BELL, AgeShape.INVERSE_BELL)
    label = "immunising preferred ages beats random and opposite ones; degree beats preferred"
    with _verdict(12, label) as findings:
        for rule in (Rule.P_PLUS, Rule.P_MINUS):
            shares = {k: [] for k in ("none", "random", "opposite", "preferred", "degree")}
            for shape in shapes:
                for seed in range(10):
                    sc, pop, net = _build(shape, rule, seed)
                    young = np.flatnonzero(pop.groups <= 2)
                    old = np.flatnonzero(pop.groups >= 6)
                    preferred, opposite = (old, young) if rule is Rule.P_PLUS else (young, old)
                    n = net.node_count
                    immunised = {
                        "none": [],
                        "random": np.random.default_rng(seed).choice(n, 9, replace=False),
                        "opposite": np.random.default_rng(seed).choice(opposite, 9, replace=False),
                        "preferred": np.random.default_rng(seed).choice(preferred, 9, replace=False),
                        "degree": select_seeds(net, 9),
                    }
                    for name, nodes in immunised.items():
                        keep = ~np.isin(net.edges, nodes).any(axis=1)
                        rest = NetworkSnapshot(n, net.edges[keep], net.gamma[keep])
                        stream = RngPolicy(seed).counter_stream("infection", 0)
                        [trace] = run_si(rest, sc, stream, [0.05])
                        shares[name].append(trace.infected_count(trace.horizon) / n)
            means = {name: float(np.mean(v)) for name, v in shares.items()}
            wins = {
                pair: int(np.sum(np.array(shares[pair[0]]) < np.array(shares[pair[1]])))
                for pair in (("preferred", "random"), ("preferred", "opposite"),
                             ("degree", "preferred"))
            }
            findings.append(
                f"{rule.value}: " + ", ".join(f"{k} {v:.3f}" for k, v in means.items())
                + "; per cell " + ", ".join(f"{a} < {b} {w}/30" for (a, b), w in wins.items())
            )
            assert means["preferred"] < means["random"], (rule, means)
            assert means["preferred"] < means["opposite"], (rule, means)
            assert means["degree"] < means["preferred"], (rule, means)
