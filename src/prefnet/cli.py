"""Command-line front end.

Five subcommands cover the pipeline: `generate` grows one network and
writes its patterns, `epidemic` additionally runs the spreading process,
`sweep` crosses age shapes with connection rules and a transmissibility
ladder, `optimize` fits preference weights to a target degree pattern,
and `report` re-reads a finished run directory and summarises it.

All outputs are plain CSV / JSON files under a run directory (--out, or
the PREFNET_OUT environment variable). Every run writes a manifest
listing its outputs; apart from the recorded runtimes, reruns of the same
command are byte-identical.

Exit codes: 0 success, 1 validation or usage error or a closed stdout,
2 I/O error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .epidemic import infection_by_distance, par, risk_report, run_si, trace_to_csv
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
    summary_to_json,
)
from .optimizer import log_to_csv, optimize, result_to_json
from .scenario import (
    preset,
    AgeShape,
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
class RunManifest:
    """What a run produced: inputs by hash, outputs by name, stage timings."""

    command: str
    scenario_hash: str
    master_seed: int
    version: str
    outputs: list[str] = field(default_factory=list)
    runtimes: dict = field(default_factory=dict)

    def write(self, out_dir: Path) -> None:
        for name in self.outputs:
            target = out_dir / name
            if not target.is_file() or target.stat().st_size == 0:
                raise AssertionError(f"manifest lists missing or empty output: {name}")
        payload = {
            "command": self.command,
            "scenario_hash": self.scenario_hash,
            "master_seed": self.master_seed,
            "version": self.version,
            "outputs": sorted(self.outputs),
            "runtimes": {k: round(v, 6) for k, v in self.runtimes.items()},
        }
        _write_json(out_dir / "manifest.json", payload)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_scenario(args) -> Scenario:
    if args.scenario is None:
        scenario = Scenario()
    elif args.scenario.startswith("preset:"):
        scenario = preset(args.scenario[len("preset:"):])
    else:
        scenario = load_scenario(args.scenario)
    return apply_overrides(scenario, args.set or [])


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV)
    if not out:
        raise ScenarioError(
            f"output directory: pass --out or set the {OUT_ENV} environment variable"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    target_text: str | None, scenario: Scenario
) -> tuple[PatternDistribution, dict]:
    """Build the target degree pattern from a --target value: 'ba:n,m', an
    'edgelist:path', or (by default) a scale-free network sized to the
    scenario."""
    if target_text is None:
        n = scenario.node_count
        m = _ba_m_for(n, scenario.edge_budget)
        target_text = f"ba:{n},{m}"
    kind, _, rest = target_text.partition(":")
    if kind == "ba":
        try:
            n_text, m_text = rest.split(",")
            n, m = int(n_text), int(m_text)
        except ValueError:
            raise ScenarioError(
                f"target: expected ba:<n>,<m>, got {target_text!r}"
            ) from None
        policy = RngPolicy(scenario.master_seed)
        net = ba_target(n, m, policy.stream("optimizer", 0))
        return degree_distribution(net), {"target": target_text}
    if kind == "edgelist":
        if not rest:
            raise ScenarioError("target: edgelist needs a path, e.g. edgelist:net.csv")
        net = load_edge_list(rest)
        return degree_distribution(net), {"target": target_text}
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


def _generate_artifacts(
    out: Path, scenario: Scenario, runtimes: dict
) -> tuple[NetworkSnapshot, Population, NetworkPatterns, list[str]]:
    """Grow the replicate-0 network and write population, edge list,
    summary and the three pattern distributions. Records the seconds spent
    growing, writing the edge list and analysing in runtimes."""
    t0 = time.perf_counter()
    policy = RngPolicy(scenario.master_seed)
    population = make_population(
        scenario.age_shape,
        scenario.node_count,
        scenario.resolved_preference(),
        policy.stream("feature-gen"),
    )
    net = generate_network(
        population,
        scenario,
        pair_draws(scenario, policy.stream("encounter", 0), policy.stream("noise", 0)),
        provenance_extra={"replicate": 0},
    )
    runtimes["grow"] = time.perf_counter() - t0
    save_scenario(scenario, out / "scenario.txt")
    population_to_csv(population, out / "population.csv")
    _write_json(
        out / "group_counts.json",
        {
            "shape": scenario.age_shape.value,
            "counts": [int(c) for c in group_counts(scenario.age_shape, scenario.node_count)],
        },
    )
    t0 = time.perf_counter()
    save_network(net, out / "network.csv", out / "network_meta.json")
    t1 = time.perf_counter()
    patterns = analyze(net)
    t2 = time.perf_counter()
    runtimes["write_network"] = t1 - t0
    runtimes["analyze"] = t2 - t1
    summary_to_json(patterns.summary, out / "summary.json")
    distribution_to_csv(patterns.degree, out / "degree_distribution.csv")
    distribution_to_csv(patterns.clustering, out / "clustering_distribution.csv")
    distribution_to_csv(patterns.path_length, out / "path_length_distribution.csv")
    outputs = [
        "scenario.txt",
        "population.csv",
        "group_counts.json",
        "network.csv",
        "network_meta.json",
        "summary.json",
        "degree_distribution.csv",
        "clustering_distribution.csv",
        "path_length_distribution.csv",
    ]
    return net, population, patterns, outputs


def _infection_table_to_csv(table: np.ndarray, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"d{d}" for d in range(table.shape[1])])
        for t, row in enumerate(table):
            writer.writerow([t] + [int(x) for x in row])


def _epidemic_artifacts(
    out: Path,
    net: NetworkSnapshot,
    population: Population,
    scenario: Scenario,
    replicate: int = 0,
) -> tuple[dict, list[str]]:
    policy = RngPolicy(scenario.master_seed)
    trace = run_si(
        net, population, scenario, policy.counter_stream("infection", replicate)
    )
    trace_to_csv(trace, out / "trace.csv")
    _infection_table_to_csv(infection_by_distance(trace), out / "infection_by_distance.csv")
    report = risk_report(trace, population, net)
    _write_json(out / "risk.json", report)
    return report, ["trace.csv", "infection_by_distance.csv", "risk.json"]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    scenario = _resolve_scenario(args)
    out = _resolve_out(args)
    runtimes: dict = {}
    t0 = time.perf_counter()
    net, _, patterns, outputs = _generate_artifacts(out, scenario, runtimes)
    runtimes["generate"] = time.perf_counter() - t0
    manifest = RunManifest(
        command="generate",
        scenario_hash=scenario.scenario_hash(),
        master_seed=scenario.master_seed,
        version=__version__,
        outputs=outputs,
        runtimes=runtimes,
    )
    manifest.write(out)
    stats = patterns.summary
    _emit(
        f"generate: {net.edge_count} edges, mean degree {stats.degree_avg:.2f}, "
        f"{stats.unconnected_count} unconnected -> {out}"
    )
    return 0


def cmd_epidemic(args) -> int:
    scenario = _resolve_scenario(args)
    out = _resolve_out(args)
    runtimes: dict = {}
    t0 = time.perf_counter()
    net, population, _, outputs = _generate_artifacts(out, scenario, runtimes)
    t1 = time.perf_counter()
    report, epi_outputs = _epidemic_artifacts(out, net, population, scenario)
    runtimes["generate"] = t1 - t0
    runtimes["epidemic"] = time.perf_counter() - t1
    manifest = RunManifest(
        command="epidemic",
        scenario_hash=scenario.scenario_hash(),
        master_seed=scenario.master_seed,
        version=__version__,
        outputs=outputs + epi_outputs,
        runtimes=runtimes,
    )
    manifest.write(out)
    _emit(
        f"epidemic: seeds {report['seeds']}, infected {report['infected_total']}"
        f"/{scenario.node_count} by step {scenario.horizon} -> {out}"
    )
    return 0


def _run_sweep_cell(payload: dict) -> dict:
    """One (shape, rule) cell; runs in a worker process under --jobs > 1."""
    scenario = Scenario(**payload["base"]).with_overrides(
        age_shape=AgeShape(payload["shape"]), rule=Rule(payload["rule"])
    )
    cell_dir = Path(payload["cell_dir"])
    cell_dir.mkdir(parents=True, exist_ok=True)
    net, population, patterns, outputs = _generate_artifacts(cell_dir, scenario, {})
    target = PatternDistribution(
        "degree", np.array(payload["target_support"]), np.array(payload["target_mass"])
    )
    js = js_divergence(patterns.degree, target)
    stats = patterns.summary
    par_rows = []
    for tau in payload["taus"]:
        sc_tau = scenario.with_overrides(transmissibility=float(tau))
        tau_dir = cell_dir / f"tau_{tau!r}"
        tau_dir.mkdir(parents=True, exist_ok=True)
        report, epi_outputs = _epidemic_artifacts(tau_dir, net, population, sc_tau)
        outputs += [f"tau_{tau!r}/{name}" for name in epi_outputs]
        diag = min(sc_tau.horizon, sc_tau.distance_cap)
        row = {
            "tau": tau,
            "infected_total": report["infected_total"],
            "final_share": report["final_share"],
            "par_diagonal": [
                report["par"][k][k] for k in range(1, diag + 1)
            ],
        }
        par_rows.append(row)
    return {
        "name": payload["name"],
        "js": js,
        "unconnected": stats.unconnected_count,
        "clustering_avg": stats.clustering_avg,
        "par_rows": par_rows,
        "outputs": [f"{payload['cell_rel']}/{name}" for name in outputs],
    }


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
    out = _resolve_out(args)
    shapes = _parse_axis(args.shapes, SHAPE_CODES, "shapes")
    rules = _parse_axis(args.rules, RULE_CODES, "rules")
    taus = _parse_taus(args.taus)
    target, target_info = _resolve_target(args.target, scenario)

    t0 = time.perf_counter()
    save_scenario(scenario, out / "scenario.txt")
    distribution_to_csv(target, out / "target_degree_distribution.csv")
    base_fields = {
        f.name: getattr(scenario, f.name)
        for f in fields(Scenario)
        if f.name not in ("age_shape", "rule")
    }
    code_of_shape = {v: k for k, v in SHAPE_CODES.items()}
    payloads = []
    for shape in shapes:
        for rule in rules:
            name = f"{code_of_shape[shape]}_{rule.value}"
            payloads.append(
                {
                    "base": base_fields,
                    "shape": shape.value,
                    "rule": rule.value,
                    "name": name,
                    "cell_rel": f"cells/{name}",
                    "cell_dir": str(out / "cells" / name),
                    "taus": taus,
                    "target_support": [int(s) for s in target.support],
                    "target_mass": [float(m) for m in target.mass],
                }
            )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_sweep_cell, payloads))
    else:
        results = [_run_sweep_cell(p) for p in payloads]

    outputs = ["scenario.txt", "target_degree_distribution.csv"]
    diag = min(scenario.horizon, scenario.distance_cap)
    with open(out / "js_table.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "shape", "rule", "js", "unconnected", "clustering_avg"])
        for payload, res in zip(payloads, results):
            writer.writerow(
                [
                    res["name"],
                    payload["shape"],
                    payload["rule"],
                    repr(res["js"]),
                    res["unconnected"],
                    repr(res["clustering_avg"]),
                ]
            )
    with open(out / "par_table.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["cell", "shape", "rule", "tau", "infected_total", "final_share"]
            + [f"par_{k}_{k}" for k in range(1, diag + 1)]
        )
        for payload, res in zip(payloads, results):
            for row in res["par_rows"]:
                writer.writerow(
                    [
                        res["name"],
                        payload["shape"],
                        payload["rule"],
                        repr(row["tau"]),
                        row["infected_total"],
                        repr(row["final_share"]),
                    ]
                    + [repr(v) for v in row["par_diagonal"]]
                )
    aggregate = {
        "target": target_info["target"],
        "taus": taus,
        "cells": [
            {
                "name": res["name"],
                "shape": payload["shape"],
                "rule": payload["rule"],
                "js": res["js"],
                "unconnected": res["unconnected"],
                "clustering_avg": res["clustering_avg"],
                "par": res["par_rows"],
            }
            for payload, res in zip(payloads, results)
        ],
    }
    _write_json(out / "aggregate.json", aggregate)
    outputs += ["js_table.csv", "par_table.csv", "aggregate.json"]
    for res in results:
        outputs += res["outputs"]

    manifest = RunManifest(
        command="sweep",
        scenario_hash=scenario.scenario_hash(),
        master_seed=scenario.master_seed,
        version=__version__,
        outputs=outputs,
        runtimes={"sweep": time.perf_counter() - t0},
    )
    manifest.write(out)
    _emit(f"sweep: {len(results)} cells x {len(taus)} transmissibilities -> {out}")
    return 0


def cmd_optimize(args) -> int:
    scenario = _resolve_scenario(args)
    out = _resolve_out(args)
    target, target_info = _resolve_target(args.target, scenario)
    runtimes: dict = {}
    t0 = time.perf_counter()
    result = optimize(
        scenario, target, budget=args.budget, replicates=args.replicates, runtimes=runtimes
    )
    runtimes["optimize"] = time.perf_counter() - t0
    save_scenario(scenario, out / "scenario.txt")
    distribution_to_csv(target, out / "target_degree_distribution.csv")
    log_to_csv(result.log, out / "eval_log.csv")
    result_to_json(result, out / "best.json")
    fitted = scenario.with_overrides(rule=Rule.PH, preference=result.best.preference)
    save_scenario(fitted, out / "fitted.scenario")
    manifest = RunManifest(
        command="optimize",
        scenario_hash=scenario.scenario_hash(),
        master_seed=scenario.master_seed,
        version=__version__,
        outputs=[
            "scenario.txt",
            "target_degree_distribution.csv",
            "eval_log.csv",
            "best.json",
            "fitted.scenario",
        ],
        runtimes=runtimes,
    )
    manifest.write(out)
    pref = result.best.preference
    _emit(
        f"optimize: best (level {pref.level} w {pref.level_weight!r}, "
        f"difference {pref.difference} w {pref.difference_weight!r}) "
        f"js {result.best.objective:.4f} after {result.evaluations} evaluations "
        f"(target {target_info['target']}) -> {out}"
    )
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    runtimes = manifest.get("runtimes", {})
    report: dict = {
        "command": manifest["command"],
        "version": manifest["version"],
        "runtimes": runtimes,
    }
    lines = [f"report: {manifest['command']} run at {run_dir}"]
    lines += [f"  runtime {stage} {seconds:.3f} s" for stage, seconds in runtimes.items()]
    if (run_dir / "aggregate.json").is_file():
        with open(run_dir / "aggregate.json", "r", encoding="utf-8") as fh:
            aggregate = json.load(fh)
        cells = aggregate["cells"]
        best = min(cells, key=lambda c: c["js"])
        report["target"] = aggregate["target"]
        report["js"] = {c["name"]: c["js"] for c in cells}
        report["best_cell"] = {"name": best["name"], "js": best["js"]}
        report["unconnected"] = {c["name"]: c["unconnected"] for c in cells}
        lines.append(f"  target {aggregate['target']}")
        lines.append(f"  best cell {best['name']} (js {best['js']:.4f})")
        for c in cells:
            final = c["par"][-1]["final_share"] if c["par"] else float("nan")
            lines.append(
                f"  {c['name']:<6} js {c['js']:.4f}  unconnected {c['unconnected']:>2}  "
                f"clustering {c['clustering_avg']:.3f}  final share at max tau {final:.3f}"
            )
    if (run_dir / "best.json").is_file():
        with open(run_dir / "best.json", "r", encoding="utf-8") as fh:
            best = json.load(fh)
        report["best"] = best
        lines.append(
            f"  fitted preference {best['best']} js {best['objective']:.4f} "
            f"({best['evaluations']} evaluations)"
        )
    if (run_dir / "summary.json").is_file():
        with open(run_dir / "summary.json", "r", encoding="utf-8") as fh:
            report["summary"] = json.load(fh)
    if (run_dir / "risk.json").is_file():
        with open(run_dir / "risk.json", "r", encoding="utf-8") as fh:
            risk = json.load(fh)
        report["risk"] = {
            "seeds": risk["seeds"],
            "infected_total": risk["infected_total"],
            "final_share": risk["final_share"],
        }
        lines.append(
            f"  seeds {risk['seeds']} infected {risk['infected_total']} "
            f"(share {risk['final_share']:.3f})"
        )
    _write_json(run_dir / "report.json", report)
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
    except (ScenarioError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - invariant violations surface as exit 3
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
