"""Fitting connection preferences to a target degree pattern.

The objective of a candidate preference is the Jensen-Shannon divergence
between the degree distribution of networks grown under it and a target
distribution, averaged over R replicate networks. Replicates use common
random numbers: replicate r of every candidate shares the same encounter
and noise streams, so objective differences reflect the preferences, not
the draws, and a rerun of the whole search is bit-identical. A search
therefore runs on draws prepared once (`replicate_draws`), its whole
input: everything that does not depend on the candidate, namely the
scenario's population and edge budget, all replicates' encounters and
jitter, and the target's mass padded onto the supports it is compared
over. The ages come from `features.make_population`, as for a single
network, and `netgen` decides growth: `pair_draws` lays replicate r out
as row r of one padded array, the layout from which `generate_network`
grows its one network, and `keep_pairs` grows all rows, so every
candidate's replicate r grows from row r by the same rule.

A candidate's scores depend on its weights only through the effective
weights a = level * level_weight and b = difference * difference_weight,
so a zero weight makes its sign irrelevant and many grid candidates share
one (a, b). The search calls `evaluate` once per distinct (a, b) and hands
its per-replicate values to every candidate that shares it. `evaluate`
works on plain arrays, all replicates in one pass: `keep_pairs` keeps in
every row the pairs `generate_network` would link, and `evaluate`
compares each row's degree frequencies with the target, building no
network or pattern object.

The search is two-phase: a coarse scan over all sign combinations crossed
with a small weight ladder, then a local pattern search on the two weights
around the grid winner (signs frozen), probing +/- step on each axis and
halving the step when nothing improves. Weight 0 is a legal grid value, so
every pure rule is itself a candidate and the winner can never be worse
than any of them. The budget caps the evaluations: each new candidate
spends one and logs one record of its R values, even when it shares its
(a, b) with an earlier one; repeated visits to a candidate are served
from cache without spending budget.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .features import make_population
from .netgen import age_code_slots, keep_pairs, pair_draws, PairDraws
from .netmetrics import js_masses, pad_mass, PatternDistribution, support_union
from .scenario import Preference, Scenario

LEVEL_GRID: tuple[int, ...] = (-1, 0, 1)
WEIGHT_GRID: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
REFINE_STEP = 0.05
REFINE_FLOOR = 0.005


@dataclass(frozen=True)
class EvalRecord:
    """One spent objective evaluation, in evaluation order: the candidate's
    preference and `js`, its R replicate values in replicate order.
    Candidates with the same effective weights share one `js` tuple."""

    preference: Preference
    js: tuple[float, ...]


@dataclass(frozen=True)
class OptimizeResult:
    """The winning preference, its mean objective and that mean's spread
    over the replicates, and the log of every spent evaluation: never
    empty, with one record per evaluation and R values in each."""

    best: Preference
    objective: float
    objective_std: float
    log: tuple[EvalRecord, ...]


@dataclass(frozen=True)
class ReplicateDraws:
    """What a search prepares once for `evaluate`, and all it reads: R
    replicates' pair draws, what it reads of the population's ages, the
    scenario's edge budget, and the target.

    pairs holds the replicates' met pairs as (R, M) rows (see
    `netgen.pair_draws`); slot indexes each pair's age code among the
    sorted codes in use, whose ages are `code_ages` (see
    `netgen.age_code_slots`), for the ages of `make_population`.
    target_mass is the target's mass padded onto the union of 0..n-1 and
    its support, as `js_divergence` pads it; degree d sits in column
    `columns[d]` of that union. offsets is r * n for each of row r's n
    degrees, so that one `bincount` counts every row's frequencies.
    """

    code_ages: tuple[np.ndarray, np.ndarray]
    slot: np.ndarray
    pairs: PairDraws
    target_mass: np.ndarray
    columns: np.ndarray
    offsets: np.ndarray
    edge_budget: int


def replicate_draws(
    scenario: Scenario, replicates: int, target: PatternDistribution
) -> ReplicateDraws:
    """Age codes and pair draws of replicates 0..R-1, the edge budget, and
    the padded target degree pattern, for `evaluate`."""
    if target.kind != "degree":
        raise ValueError(f"cannot compare 'degree' with {target.kind!r} patterns")
    n = scenario.node_count
    pairs = pair_draws(scenario, replicates)
    code_ages, slot = age_code_slots(make_population(scenario).ages, pairs)
    nodes = np.arange(n)
    union = support_union(nodes, target.support)
    offsets = np.repeat(np.arange(0, replicates * n, n), n)
    return ReplicateDraws(code_ages, slot, pairs, pad_mass(target, union),
                          np.searchsorted(union, nodes), offsets, scenario.edge_budget)


def evaluate(preference: Preference, draws: ReplicateDraws) -> tuple[float, list[float]]:
    """Mean and per-replicate degree-pattern divergence from the target for
    networks grown under `preference`, one network per replicate's draws.

    Passing the same draws (`replicate_draws(scenario, R, target)`) for
    every candidate compares candidates under common random numbers.

    Replicate r's value equals `js_divergence(degree_distribution(
    generate_network(make_population(scenario), fitted, row_r)), target)`
    bit for bit, for `fitted`, the draws' scenario with `preference` set,
    and row r of the pair draws as one-row `PairDraws`, but no network or
    pattern object is built, and all replicates go in one pass: keep each
    row's budgeted best with `netgen.keep_pairs`, the kernel
    `generate_network` grows through, count the R * n degrees with two
    `bincount`s and their frequencies with a third, divide by n, and take
    every row's divergence from the draws' padded target mass."""
    pairs = draws.pairs
    n, rows = pairs.node_count, pairs.met.shape[0]
    kept, _ = keep_pairs(preference, draws.edge_budget, pairs, draws.code_ages, draws.slot)
    degrees = np.bincount(pairs.i.take(kept), minlength=rows * n)
    degrees += np.bincount(pairs.j.take(kept), minlength=rows * n)
    degrees += draws.offsets
    counts = np.bincount(degrees, minlength=rows * n).reshape(rows, n)
    mass = np.zeros((rows, draws.target_mass.shape[0]))
    mass[:, draws.columns] = counts / n
    values = js_masses(mass, draws.target_mass)
    return float(np.mean(values)), values.tolist()


# A candidate's objective: the mean and the R replicate values.
_Objective = tuple[float, tuple[float, ...]]


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def optimize(
    draws: ReplicateDraws,
    budget: int,
    progress: Callable[[int, float], None] | None = None,
) -> OptimizeResult:
    """Search for the preference whose networks best match the target
    degree pattern, spending at most `budget` objective evaluations.

    Every candidate is evaluated on the same `draws`
    (`replicate_draws(scenario, R, target)`), which hold the R replicates,
    the edge budget and the target; the search builds no draws of its
    own. If `progress` is given, it is called with the evaluations spent
    and the best objective so far after the grid scan and after each
    halving of the refinement step."""
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    log: list[EvalRecord] = []
    cache: dict[tuple, _Objective] = {}
    # evaluate() results by effective weights (a, b), on which alone the
    # scores depend; -0.0 and 0.0 are one key, and give the same scores.
    shared: dict[tuple[float, float], _Objective] = {}

    def run(pref: Preference) -> _Objective | None:
        """Objective mean and replicate values of a candidate, None once
        budget is gone; each new candidate spends one evaluation and logs
        one record."""
        key = (
            pref.level,
            round(pref.level_weight, 10),
            pref.difference,
            round(pref.difference_weight, 10),
        )
        if key in cache:
            return cache[key]
        if len(log) >= budget:
            return None
        effective = (
            pref.level * pref.level_weight,
            pref.difference * pref.difference_weight,
        )
        if effective not in shared:
            mean, values = evaluate(pref, draws)
            shared[effective] = (mean, tuple(values))
        result = shared[effective]
        log.append(EvalRecord(pref, result[1]))
        cache[key] = result
        return result

    best_pref: Preference | None = None
    best: _Objective | None = None

    for values in itertools.product(LEVEL_GRID, WEIGHT_GRID, LEVEL_GRID, WEIGHT_GRID):
        pref = Preference(*values)
        result = run(pref)
        if result is None:
            break
        if best is None or result[0] < best[0]:
            best_pref, best = pref, result

    assert best_pref is not None and best is not None  # budget >= 1
    if progress is not None:
        progress(len(log), best[0])

    step = REFINE_STEP
    while len(log) < budget and step >= REFINE_FLOOR:
        probes = (
            (step, 0.0),
            (-step, 0.0),
            (0.0, step),
            (0.0, -step),
        )
        improved: tuple[Preference, _Objective] | None = None
        for d_lw, d_dw in probes:
            pref = Preference(
                best_pref.level,
                _clip01(best_pref.level_weight + d_lw),
                best_pref.difference,
                _clip01(best_pref.difference_weight + d_dw),
            )
            result = run(pref)
            if result is None:
                break
            if result[0] < best[0] and (improved is None or result[0] < improved[1][0]):
                improved = (pref, result)
        if improved is not None:
            best_pref, best = improved
        else:
            step /= 2.0
            if progress is not None:
                progress(len(log), best[0])

    # Only the winner's spread is reported, so it is the only one computed.
    return OptimizeResult(best_pref, best[0], float(np.std(best[1])), tuple(log))


def log_to_csv(log, path) -> None:
    """Write one row per replicate of each record, in log order."""
    header = ["level", "level_weight", "difference", "difference_weight", "replicate", "js"]
    write_csv(path, header, _log_rows(log))


def _log_rows(log):
    for rec in log:
        p = rec.preference
        fields = [p.level, p.level_weight, p.difference, p.difference_weight]
        for r, v in enumerate(rec.js):
            yield fields + [r, v]


def result_to_json(result: OptimizeResult, path) -> None:
    """Write the winner, its objective and spread, the replicate count and
    the evaluations spent, both read off the log."""
    payload = {
        "best": asdict(result.best),
        "objective": result.objective,
        "objective_std": result.objective_std,
        "replicates": len(result.log[0].js),
        "evaluations": len(result.log),
    }
    write_json(path, payload)
