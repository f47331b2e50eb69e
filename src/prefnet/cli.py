"""Command-line front end.

Five subcommands cover the pipeline: `generate` grows one network and
writes its patterns, `epidemic` additionally runs the spreading process,
`sweep` crosses age shapes with connection rules and a transmissibility
ladder, `optimize` fits preference weights to a target degree pattern,
and `report` re-reads a finished run directory and summarises it.

All outputs are plain CSV / JSON files (format in `artifacts`) under a
run directory (--out, or the PREFNET_OUT environment variable). Each
artifact's name is recorded as its path is handed out, so the manifest
lists exactly the files written, next to each stage's seconds, all timed
by `_RunDir.stage` (`optimize`'s `draws` and `search` among them). A
sweep also records each cell's seconds, `cell:<name>`, and its `grow`,
`write_network`, `analyze` and `epidemic` seconds under `cell_runtimes`.
Apart from those runtimes, reruns of the same command are byte-identical.

Exit codes: 0 success, 1 validation or usage error (a malformed manifest
given to `report` included), a run too large for memory or a closed
stdout, 2 I/O error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from stat import S_ISREG

import numpy as np

from . import __version__
from .artifacts import read_json, write_csv, write_json
from .epidemic import EpidemicTrace, risk_report, run_si, trace_to_csv
from .features import (
    group_counts,
    make_population,
    population_to_csv,
    Population,
)
from .netgen import (
    ba_target,
    generate_network,
    load_edge_list,
    pair_draws,
    PairDraws,
    save_network,
    NetworkSnapshot,
)
from .netmetrics import (
    analyze,
    degree_distribution,
    distribution_to_csv,
    js_divergence,
    NetworkPatterns,
    PatternDistribution,
    SummaryStats,
)
from .optimizer import log_to_csv, optimize, replicate_draws, result_to_json
from .scenario import (
    preset,
    load_scenario,
    apply_overrides,
    RngPolicy,
    Rule,
    RULE_CODES,
    save_scenario,
    Scenario,
    ScenarioError,
    SHAPE_CODES,
)

OUT_ENV = "PREFNET_OUT"
DEFAULT_TAUS = (0.2, 0.4, 0.6, 0.8, 1.0)


class _UsageError(Exception):
    pass


class _ClosedStdout(Exception):
    """Whoever read stdout closed it before the result line was out."""


def _emit(line: str) -> None:
    """Print a command's result line to stdout, flushed."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        raise _ClosedStdout from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


@dataclass
class _RunDir:
    """A run's output directory. `path` hands out where an artifact goes
    and records its name, so the manifest lists exactly what was written;
    `stage` records the seconds a stage of the run takes; `sub` shares
    both records with a subdirectory. Paths are plain strings: no `Path`
    is parsed (and its parts interned) per artifact."""

    root: str
    prefix: str = ""
    outputs: list[str] = field(default_factory=list)
    runtimes: dict[str, float] = field(default_factory=dict)

    def path(self, name: str) -> str:
        self.outputs.append(self.prefix + name)
        return os.path.join(self.root, self.prefix + name)

    def sub(self, name: str) -> _RunDir:
        prefix = f"{self.prefix}{name}/"
        os.makedirs(os.path.join(self.root, prefix), exist_ok=True)
        return _RunDir(self.root, prefix, self.outputs, self.runtimes)

    @contextmanager
    def stage(self, name: str):
        """Record the seconds the `with` block takes, to the microsecond,
        as stage `name`."""
        clock = time.perf_counter
        start = clock()
        yield
        self.runtimes[name] = round(clock() - start, 6)

    def write_manifest(
        self,
        command: str,
        scenario: Scenario,
        options: dict,
        cell_runtimes: dict | None = None,
        target_file: dict | None = None,
    ) -> None:
        """Write manifest.json: inputs by hash, the command's options (with
        the scenario file, enough to rerun it), an edge-list target's file,
        outputs by name, stage seconds, a sweep's stage seconds per cell,
        and the Python and numpy versions and CPU count those seconds were
        taken with."""
        for name in self.outputs:
            try:
                written = os.stat(os.path.join(self.root, name))
            except OSError:
                written = None
            if written is None or not S_ISREG(written.st_mode) or written.st_size == 0:
                raise AssertionError(f"manifest lists missing or empty output: {name}")
        payload = {
            "command": command,
            "scenario_hash": scenario.scenario_hash(),
            "master_seed": scenario.master_seed,
            "options": options,
            "version": __version__,
            "outputs": sorted(self.outputs),
            "runtimes": self.runtimes,
            "environment": {
                "python": ".".join(map(str, sys.version_info[:3])),
                "numpy": np.__version__,
                "nproc": os.cpu_count(),
            },
        }
        if cell_runtimes is not None:
            payload["cell_runtimes"] = cell_runtimes
        if target_file is not None:
            payload["target_file"] = target_file
        write_json(os.path.join(self.root, "manifest.json"), payload)


def _resolve_scenario(args) -> Scenario:
    if args.scenario is None:
        scenario = Scenario()
    elif args.scenario.startswith("preset:"):
        scenario = preset(args.scenario[len("preset:"):])
    else:
        scenario = load_scenario(args.scenario)
    return apply_overrides(scenario, args.set or [])


def _resolve_out(args) -> _RunDir:
    out = args.out or os.environ.get(OUT_ENV)
    if not out:
        raise ScenarioError(
            f"output directory: pass --out or set the {OUT_ENV} environment variable"
        )
    root = str(Path(out))  # as pathlib prints it: out/ and ./out print as out
    os.makedirs(root, exist_ok=True)
    return _RunDir(root)


def _ba_m_for(n: int, edge_budget: int) -> int:
    """Attachment count whose edge total m*(n-m) comes closest to the
    budget (ties to the smaller m)."""
    best_m, best_gap = 1, abs((n - 1) - edge_budget)
    for m in range(1, n):
        gap = abs(m * (n - m) - edge_budget)
        if gap < best_gap:
            best_m, best_gap = m, gap
    return best_m


def _resolve_target(
    text: str | None, scenario: Scenario
) -> tuple[PatternDistribution, str, dict | None]:
    """Build the target degree pattern from a --target value: 'ba:n,m', an
    'edgelist:path', or (by default) a scale-free network sized to the
    scenario. Also returns the target's text, with the default filled in,
    and for an edge list the file it read: its absolute path and the
    sha256 of its bytes."""
    where = "target"
    if text is None:
        n = scenario.node_count
        m = _ba_m_for(n, scenario.edge_budget)
        text = f"ba:{n},{m}"
        where = f"target (default, sized to node_count={n})"
    kind, _, rest = text.partition(":")
    if kind == "ba":
        try:
            n_text, m_text = rest.split(",")
            n, m = int(n_text), int(m_text)
        except ValueError:
            raise ScenarioError(f"target: expected ba:<n>,<m>, got {text!r}") from None
        policy = RngPolicy(scenario.master_seed)
        try:
            net = ba_target(n, m, policy.stream("optimizer", 0))
        except ValueError as err:
            raise ScenarioError(f"{where}: {text}: {err}") from None
        return degree_distribution(net), text, None
    if kind == "edgelist":
        if not rest:
            raise ScenarioError("target: edgelist needs a path, e.g. edgelist:net.csv")
        net = load_edge_list(rest)
        if not net.edge_count:
            raise ScenarioError(f"target: {rest}: the edge list has no edges")
        digest = hashlib.sha256(Path(rest).read_bytes()).hexdigest()
        return degree_distribution(net), text, {"path": os.path.abspath(rest), "sha256": digest}
    raise ScenarioError(f"target: unknown kind {kind!r}; expected ba or edgelist")


def _parse_axis(text: str | None, codes: dict, label: str) -> list:
    if text is None:
        return list(codes.values())
    values = []
    by_value = {v.value: v for v in codes.values()}
    for token in text.split(","):
        token = token.strip()
        if token in codes:
            values.append(codes[token])
        elif token in by_value:
            values.append(by_value[token])
        else:
            options = "/".join(list(codes) + list(by_value))
            raise ScenarioError(f"{label}: unknown value {token!r}; expected {options}")
        if values[-1] in values[:-1]:
            raise ScenarioError(f"{label}: {values[-1].value} is listed twice")
    return values


def _parse_taus(text: str | None) -> list[float]:
    if text is None:
        return list(DEFAULT_TAUS)
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ScenarioError(f"taus: empty value in {text!r}")
    try:
        taus = [float(tok) for tok in tokens]
    except ValueError:
        raise ScenarioError(f"taus: expected comma-separated numbers, got {text!r}") from None
    for k, tau in enumerate(taus):
        if not 0.0 <= tau <= 1.0:
            raise ScenarioError(f"taus: values must lie in [0, 1], got {tau!r}")
        if tau in taus[:k]:
            raise ScenarioError(f"taus: {tau!r} is listed twice")
    return taus


# ---------------------------------------------------------------------------
# Shared artifact writers


def _grow(run: _RunDir, scenario: Scenario) -> tuple[Population, NetworkSnapshot]:
    """Draw the population and the replicate-0 pairs and grow the network,
    as stage "grow"."""
    with run.stage("grow"):
        population = make_population(scenario)
        net = generate_network(population, scenario, pair_draws(scenario))
    return population, net


def _generate_artifacts(
    run: _RunDir, scenario: Scenario, population: Population, net: NetworkSnapshot
) -> NetworkPatterns:
    """Write population, edge list, summary and the three pattern
    distributions of a grown network; writing the edge list with its meta
    file and analysing are stages "write_network" and "analyze". The meta
    records where the network came from: the scenario's hash, the streams
    it was drawn from, replicate 0, and whether fewer pairs met than the
    budget (growth keeps min(budget, met) pairs)."""
    save_scenario(scenario, run.path("scenario.txt"))
    population_to_csv(population, run.path("population.csv"))
    shape = scenario.age_shape
    counts = group_counts(shape, scenario.node_count).tolist()
    write_json(run.path("group_counts.json"), {"shape": shape.value, "counts": counts})
    with run.stage("write_network"):
        save_network(net, run.path("network.csv"))
        provenance = {
            "kind": "generated",
            "scenario": scenario.scenario_hash(),
            "streams": ["encounter", "noise"],
            "shortfall": net.edge_count < scenario.edge_budget,
            "replicate": 0,
        }
        write_json(run.path("network_meta.json"), {
            "node_count": net.node_count, "edge_count": net.edge_count, "provenance": provenance,
        })
    with run.stage("analyze"):
        patterns = analyze(net)
    write_json(run.path("summary.json"), asdict(patterns.summary))
    distribution_to_csv(patterns.degree, run.path("degree_distribution.csv"))
    distribution_to_csv(patterns.clustering, run.path("clustering_distribution.csv"))
    distribution_to_csv(patterns.path_length, run.path("path_length_distribution.csv"))
    return patterns


def _outbreaks(
    net: NetworkSnapshot, scenario: Scenario, taus: list[float] | None = None
) -> list[EpidemicTrace]:
    """One outbreak per transmissibility (default: the scenario's) on the
    replicate-0 infection draws, all stepped in one run_si call."""
    stream = RngPolicy(scenario.master_seed).counter_stream("infection", 0)
    return run_si(net, scenario, stream, taus)


def _epidemic_artifacts(
    run: _RunDir, trace: EpidemicTrace, net: NetworkSnapshot, population: Population
) -> dict:
    """Write an outbreak's trace, infection-by-distance table and risk
    report."""
    trace_to_csv(trace, run.path("trace.csv"))
    report = risk_report(trace, population, net)
    write_csv(
        run.path("infection_by_distance.csv"),
        ["t"] + [f"d{d}" for d in range(trace.distance_cap + 1)],
        ([t] + row for t, row in enumerate(report["infection_by_distance"])),
    )
    write_json(run.path("risk.json"), report)
    return report


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    scenario = _resolve_scenario(args)
    run = _resolve_out(args)
    with run.stage("generate"):
        population, net = _grow(run, scenario)
        patterns = _generate_artifacts(run, scenario, population, net)
    run.write_manifest("generate", scenario, {})
    stats = patterns.summary
    _emit(
        f"generate: {net.edge_count} edges, mean degree {stats.degree_avg:.2f}, "
        f"{stats.unconnected_count} unconnected -> {run.root}"
    )
    return 0


def cmd_epidemic(args) -> int:
    scenario = _resolve_scenario(args)
    run = _resolve_out(args)
    with run.stage("generate"):
        population, net = _grow(run, scenario)
        _generate_artifacts(run, scenario, population, net)
    with run.stage("epidemic"):
        [trace] = _outbreaks(net, scenario)
        report = _epidemic_artifacts(run, trace, net, population)
    run.write_manifest("epidemic", scenario, {})
    _emit(
        f"epidemic: seeds {report['seeds']}, infected {report['infected_total']}"
        f"/{scenario.node_count} by step {scenario.horizon} -> {run.root}"
    )
    return 0


def _run_sweep_cell(
    root: str,
    target: PatternDistribution,
    taus: list[float],
    draws: PairDraws,
    name: str,
    scenario: Scenario,
    population: Population,
) -> tuple[dict, list[str], dict[str, float]]:
    """One (shape, rule) cell, grown from the sweep's pair draws and its
    shape's population; runs in a worker process when cells run in
    parallel. Returns the cell's aggregate entry, the outputs it wrote and
    its stage seconds, the whole cell's as stage "cell"."""
    cell = _RunDir(root).sub(f"cells/{name}")
    with cell.stage("cell"):
        with cell.stage("grow"):
            net = generate_network(population, scenario, draws)
        patterns = _generate_artifacts(cell, scenario, population, net)
        diag = min(scenario.horizon, scenario.distance_cap)
        par_rows = []
        with cell.stage("epidemic"):
            for tau, trace in zip(taus, _outbreaks(net, scenario, taus)):
                report = _epidemic_artifacts(cell.sub(f"tau_{tau!r}"), trace, net, population)
                par_rows.append(
                    {
                        "tau": tau,
                        "infected_total": report["infected_total"],
                        "final_share": report["final_share"],
                        "par_diagonal": [report["par"][k][k] for k in range(1, diag + 1)],
                    }
                )
        entry = {
            "name": name,
            "shape": scenario.age_shape.value,
            "rule": scenario.rule.value,
            "js": js_divergence(patterns.degree, target),
            "unconnected": patterns.summary.unconnected_count,
            "clustering_avg": patterns.summary.clustering_avg,
            "par": par_rows,
        }
    return entry, cell.outputs, cell.runtimes


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"jobs: must be at least 1, got {args.jobs}")
    scenario = _resolve_scenario(args)
    if scenario.preference is not None:
        raise ScenarioError(
            "preference: sweep cells take their preference from --rules (PH uses "
            "its per-shape preset); drop the preference override from --set or "
            "the scenario file"
        )
    run = _resolve_out(args)
    shapes = _parse_axis(args.shapes, SHAPE_CODES, "shapes")
    rules = _parse_axis(args.rules, RULE_CODES, "rules")
    taus = _parse_taus(args.taus)
    with run.stage("target"):
        target, target_text, target_file = _resolve_target(args.target, scenario)
    code_of_shape = {v: k for k, v in SHAPE_CODES.items()}
    options = {
        "target": target_text,
        "shapes": [code_of_shape[shape] for shape in shapes],
        "rules": [rule.value for rule in rules],
        "taus": taus,
    }

    with run.stage("sweep"):
        save_scenario(scenario, run.path("scenario.txt"))
        distribution_to_csv(target, run.path("target_degree_distribution.csv"))
        grid = [(shape, rule) for shape in shapes for rule in rules]
        names = [f"{code_of_shape[shape]}_{rule.value}" for shape, rule in grid]
        scenarios = [scenario.with_overrides(age_shape=shape, rule=rule) for shape, rule in grid]
        population_of_shape = {
            shape: make_population(scenario.with_overrides(age_shape=shape)) for shape in shapes
        }
        populations = [population_of_shape[shape] for shape, _ in grid]
        run_cell = partial(_run_sweep_cell, run.root, target, taus, pair_draws(scenario))
        results = []

        def take(cell_results) -> None:
            for result in cell_results:
                results.append(result)
                print(f"sweep: {len(results)}/{len(names)} cells", file=sys.stderr, flush=True)

        workers = min(args.jobs, len(names))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                take(pool.map(run_cell, names, scenarios, populations))
        else:
            take(map(run_cell, names, scenarios, populations))

        entries = [entry for entry, _, _ in results]
        diag = min(scenario.horizon, scenario.distance_cap)
        write_csv(
            run.path("js_table.csv"),
            ["cell", "shape", "rule", "js", "unconnected", "clustering_avg"],
            (
                [c["name"], c["shape"], c["rule"], c["js"], c["unconnected"], c["clustering_avg"]]
                for c in entries
            ),
        )
        write_csv(
            run.path("par_table.csv"),
            ["cell", "shape", "rule", "tau", "infected_total", "final_share"]
            + [f"par_{k}_{k}" for k in range(1, diag + 1)],
            (
                [c["name"], c["shape"], c["rule"], row["tau"], row["infected_total"],
                 row["final_share"]] + row["par_diagonal"]
                for c in entries
                for row in c["par"]
            ),
        )
        write_json(run.path("aggregate.json"),
                   {"target": target_text, "taus": taus, "cells": entries})
    cell_runtimes = {}
    for entry, outputs, seconds in results:
        run.outputs += outputs
        run.runtimes[f"cell:{entry['name']}"] = seconds.pop("cell")
        cell_runtimes[entry["name"]] = seconds
    run.write_manifest("sweep", scenario, options, cell_runtimes, target_file)
    _emit(f"sweep: {len(results)} cells x {len(taus)} transmissibilities -> {run.root}")
    return 0


def cmd_optimize(args) -> int:
    scenario = _resolve_scenario(args)
    run = _resolve_out(args)
    with run.stage("target"):
        target, target_text, target_file = _resolve_target(args.target, scenario)
    if args.budget < 1:  # before any draw: many replicates take seconds to draw
        raise ScenarioError(f"budget must be positive, got {args.budget}")

    def progress(spent: int, best: float) -> None:
        print(f"optimize: {spent}/{args.budget} evaluations, best js {best:.4f}",
              file=sys.stderr, flush=True)

    with run.stage("optimize"):
        with run.stage("draws"):
            draws = replicate_draws(scenario, args.replicates, target)
        with run.stage("search"):
            result = optimize(draws, args.budget, progress=progress)
    del draws  # the fit's largest arrays: free them before the artifacts are written
    save_scenario(scenario, run.path("scenario.txt"))
    distribution_to_csv(target, run.path("target_degree_distribution.csv"))
    log_to_csv(result.log, run.path("eval_log.csv"))
    result_to_json(result, run.path("best.json"))
    pref = result.best
    save_scenario(scenario.with_overrides(rule=Rule.PH, preference=pref),
                  run.path("fitted.scenario"))
    options = {"target": target_text, "budget": args.budget, "replicates": args.replicates}
    run.write_manifest("optimize", scenario, options, target_file=target_file)
    _emit(
        f"optimize: best (level {pref.level} w {pref.level_weight!r}, "
        f"difference {pref.difference} w {pref.difference_weight!r}) "
        f"js {result.objective:.4f} after {len(result.log)} evaluations "
        f"(target {target_text}) -> {run.root}"
    )
    return 0


# JSON kinds a run file's fields are checked against: (types, description).
_OBJECT = (dict, "a JSON object")
_LIST = (list, "a list")
_STRING = (str, "a string")
_NUMBER = ((int, float), "a finite number")
_INTEGER = (int, "an integer")
# The stages a sweep times in every cell, as `cell_runtimes` records them.
_CELL_STAGES = ("grow", "write_network", "analyze", "epidemic")


def _check(path: Path, value, field: str, kind: tuple):
    """`value` if it is of `kind` (a bool is not a number, nor is a NaN or
    infinite float); otherwise an error naming the file and the field."""
    types, expected = kind
    if (not isinstance(value, types) or isinstance(value, bool)
            or isinstance(value, float) and not math.isfinite(value)):
        raise ScenarioError(f"{path}: {field}: expected {expected}, got {value!r}")
    return value


def _read_object(path: Path, fields: dict | None = None) -> dict:
    """The JSON object at `path`, with each of `fields` (name -> kind)
    checked."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ScenarioError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    for key, kind in (fields or {}).items():
        _check(path, payload.get(key), key, kind)
    return payload


def _read_manifest(path: Path) -> dict:
    """The manifest at `path`, checked for the fields `report` reads."""
    manifest = _read_object(path, {"command": _STRING, "version": _STRING})
    runtimes = _check(path, manifest.setdefault("runtimes", {}), "runtimes", _OBJECT)
    for stage, seconds in runtimes.items():
        _check(path, seconds, f"runtimes.{stage}", _NUMBER)
    cells = manifest.get("cell_runtimes")
    if cells is not None:
        _check(path, cells, "cell_runtimes", _OBJECT)
        for name, stages in cells.items():
            _check(path, stages, f"cell_runtimes.{name}", _OBJECT)
            for stage in _CELL_STAGES:
                _check(path, stages.get(stage), f"cell_runtimes.{name}.{stage}", _NUMBER)
    return manifest


def _read_aggregate(path: Path) -> dict:
    """A sweep's aggregate.json, checked for the fields `report` reads."""
    aggregate = _read_object(path, {"target": _STRING, "cells": _LIST})
    if not aggregate["cells"]:
        raise ScenarioError(f"{path}: cells: expected at least one cell, got []")
    fields = {
        "name": _STRING,
        "js": _NUMBER,
        "unconnected": _INTEGER,
        "clustering_avg": _NUMBER,
        "par": _LIST,
    }
    for k, cell in enumerate(aggregate["cells"]):
        where = f"cells[{k}]"
        _check(path, cell, where, _OBJECT)
        for key, kind in fields.items():
            _check(path, cell.get(key), f"{where}.{key}", kind)
        if not cell["par"]:
            raise ScenarioError(f"{path}: {where}.par: expected at least one entry, got []")
        for t, entry in enumerate(cell["par"]):
            _check(path, entry, f"{where}.par[{t}]", _OBJECT)
            for key in ("tau", "final_share"):
                _check(path, entry.get(key), f"{where}.par[{t}].{key}", _NUMBER)
    return aggregate


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = _read_manifest(run_dir / "manifest.json")
    runtimes = manifest["runtimes"]
    report: dict = {
        "command": manifest["command"],
        "version": manifest["version"],
        "runtimes": runtimes,
    }
    lines = [f"report: {manifest['command']} run at {run_dir}"]
    lines += [f"  runtime {stage} {seconds:.3f} s" for stage, seconds in runtimes.items()]
    if "cell_runtimes" in manifest:
        totals = {stage: sum(cell[stage] for cell in manifest["cell_runtimes"].values())
                  for stage in _CELL_STAGES}
        whole = sum(totals.values())
        report["cell_stages"] = {
            stage: {"seconds": seconds, "share": seconds / whole if whole else 0.0}
            for stage, seconds in totals.items()
        }
        lines.append("  cell stages " + ", ".join(
            f"{stage} {t['seconds']:.3f} s ({t['share']:.0%})"
            for stage, t in report["cell_stages"].items()))
    if (run_dir / "aggregate.json").is_file():
        aggregate = _read_aggregate(run_dir / "aggregate.json")
        cells = aggregate["cells"]
        best = min(cells, key=lambda c: c["js"])
        report["target"] = aggregate["target"]
        report["js"] = {c["name"]: c["js"] for c in cells}
        report["best_cell"] = {"name": best["name"], "js": best["js"]}
        report["unconnected"] = {c["name"]: c["unconnected"] for c in cells}
        lines.append(f"  target {aggregate['target']}")
        lines.append(f"  best cell {best['name']} (js {best['js']:.4f})")
        for c in cells:
            final = max(c["par"], key=lambda row: row["tau"])["final_share"]
            lines.append(
                f"  {c['name']:<6} js {c['js']:.4f}  unconnected {c['unconnected']:>2}  "
                f"clustering {c['clustering_avg']:.3f}  final share at max tau {final:.3f}"
            )
    if (run_dir / "best.json").is_file():
        best = _read_object(
            run_dir / "best.json",
            {"best": _OBJECT, "objective": _NUMBER, "evaluations": _INTEGER},
        )
        report["best"] = best
        lines.append(
            f"  fitted preference {best['best']} js {best['objective']:.4f} "
            f"({best['evaluations']} evaluations)"
        )
    if (run_dir / "summary.json").is_file():
        report["summary"] = _read_object(
            run_dir / "summary.json", {f.name: _NUMBER for f in fields(SummaryStats)}
        )
    if (run_dir / "risk.json").is_file():
        risk = _read_object(
            run_dir / "risk.json",
            {"seeds": _LIST, "infected_total": _INTEGER, "final_share": _NUMBER},
        )
        report["risk"] = {
            "seeds": risk["seeds"],
            "infected_total": risk["infected_total"],
            "final_share": risk["final_share"],
        }
        lines.append(
            f"  seeds {risk['seeds']} infected {risk['infected_total']} "
            f"(share {risk['final_share']:.3f})"
        )
    write_json(run_dir / "report.json", report)
    _emit("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefnet",
        description="Preference-driven network growth, spreading and rule fitting.",
    )
    parser.add_argument("--version", action="version", version=f"prefnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--scenario",
            help="scenario file path, or preset:<name> (e.g. preset:U_PH)",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a scenario field (repeatable)",
        )
        p.add_argument(
            "--out",
            help=f"output directory (default: ${OUT_ENV})",
        )

    p_gen = sub.add_parser("generate", help="grow one network and extract its patterns")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_epi = sub.add_parser("epidemic", help="grow a network and run the spreading process")
    add_common(p_epi)
    p_epi.set_defaults(func=cmd_epidemic)

    p_sweep = sub.add_parser(
        "sweep", help="cross age shapes x rules x transmissibilities"
    )
    add_common(p_sweep)
    p_sweep.add_argument("--shapes", help="comma list of U,B,I,L,R (default: all)")
    p_sweep.add_argument("--rules", help="comma list of P+,P-,H+,H-,PH (default: all)")
    p_sweep.add_argument(
        "--taus", help="comma list of transmissibilities (default: 0.2..1.0)"
    )
    p_sweep.add_argument(
        "--target",
        help="degree target: ba:<n>,<m> or edgelist:<path> (default: ba sized to scenario)",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="fit preference weights to a degree target")
    add_common(p_opt)
    p_opt.add_argument(
        "--target",
        help="degree target: ba:<n>,<m> or edgelist:<path> (default: ba sized to scenario)",
    )
    p_opt.add_argument("--budget", type=int, default=700, help="max objective evaluations")
    p_opt.add_argument("--replicates", type=int, default=5, help="networks per evaluation")
    p_opt.set_defaults(func=cmd_optimize)

    p_rep = sub.add_parser("report", help="summarise a finished run directory")
    p_rep.add_argument("run_dir", help="directory written by a previous command")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _ClosedStdout:
        # Send what is still buffered to /dev/null, so that the interpreter
        # does not report the closed pipe again when it flushes at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: {err or 'out of memory'}; lower node_count, edge_budget, horizon, "
              "distance_cap or --replicates, or the node ids of an edge-list target",
              file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - invariant violations surface as exit 3
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
