"""Tests of the benchmark itself: output checks, op accounting, tracing
and the result line. Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import prefnet.cli  # noqa: E402
import tracing  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 7

# Small versions of the four workloads: the same commands and checks on
# a 30-node network (default target ba:30,5 for a 120-edge budget).
SMALL = {
    "sweep": Workload(
        name="small_sweep", why="", command="sweep",
        options=("--jobs", "1", "--shapes", "U,B", "--rules", "PH,H+", "--taus", "0.2,1.0"),
        node_count=30, edge_budget=120, target=(30, 5), cells=4, taus=2,
    ),
    "optimize": Workload(
        name="small_fit", why="", command="optimize", options=(),
        node_count=30, edge_budget=120, target=(30, 5), eval_budget=20, replicates=3,
    ),
    "epidemic": Workload(
        name="small_epidemic", why="", command="epidemic", options=(),
        node_count=30, edge_budget=120,
    ),
}


def run_op(workload: Workload, out: Path) -> Path:
    assert prefnet.cli.main(workload.argv(SEED, out)) == 0
    return out


@pytest.mark.parametrize("command", sorted(SMALL))
def test_checks_pass_on_clean_outputs(tmp_path, command):
    out = run_op(SMALL[command], tmp_path / "out")
    assert checks.verify(out, SMALL[command], SEED) == []


def test_checks_see_wrong_inputs(tmp_path):
    out = run_op(SMALL["epidemic"], tmp_path / "out")
    assert checks.verify(out, SMALL["epidemic"], SEED + 1)
    assert checks.verify(out, replace(SMALL["epidemic"], edge_budget=119), SEED)


def _swap_network_rows(out):
    path = out / "network.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))


def _lower_final_par(out):
    path = out / "risk.json"
    risk = json.loads(path.read_text())
    risk["par"][-1][1] = 0.0
    path.write_text(json.dumps(risk))


def _drop_trace_row(out):
    path = out / "trace.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _change_summary(out):
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["path_avg"] += 1e-6
    path.write_text(json.dumps(summary))


def _truncate_population(out):
    path = out / "population.csv"
    path.write_bytes(path.read_bytes()[:-3])


def _extra_file(out):
    (out / "stray.txt").write_text("x\n")


CORRUPTIONS = [
    _swap_network_rows,
    _lower_final_par,
    _drop_trace_row,
    _change_summary,
    _truncate_population,
    _extra_file,
]


class _CorruptingCli:
    """prefnet.cli stand-in that runs the real command, then damages one
    artifact before the runner checks it."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def main(self, argv):
        rc = prefnet.cli.main(argv)
        self.corrupt(Path(argv[argv.index("--out") + 1]))
        return rc


def _runner(tmp_path, workload) -> Runner:
    return Runner(workload, SEED, tmp_path / "run", tmp_path / "state", ROOT / "src")


def test_clean_op_passes(tmp_path):
    runner = _runner(tmp_path, SMALL["epidemic"])
    runner.op()
    runner.op()
    assert (runner.ops, runner.failed, runner.problems) == (2, 0, [])


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_corrupted_artifact_counts_as_failed_op(tmp_path, corrupt):
    runner = _runner(tmp_path, SMALL["epidemic"])
    runner.cli = _CorruptingCli(corrupt)
    runner.op()
    assert runner.failed == 1 and runner.problems


def test_corrupted_sweep_table_fails(tmp_path):
    def bump_js(out):
        path = out / "js_table.csv"
        path.write_text(path.read_text().replace(",0.", ",0.9", 1))

    runner = _runner(tmp_path, SMALL["sweep"])
    runner.cli = _CorruptingCli(bump_js)
    runner.op()
    assert runner.failed == 1


def test_outputs_that_change_between_ops_fail(tmp_path):
    runner = _runner(tmp_path, SMALL["epidemic"])
    runner.op()
    runner.cli = _CorruptingCli(lambda out: (out / "scenario.txt").write_text("node_count = 30\n"))
    runner.op()
    assert runner.failed == 1


def test_ops_write_over_emptied_files_of_the_op_before(tmp_path):
    runner = _runner(tmp_path, SMALL["epidemic"])
    runner.op()
    out = tmp_path / "run" / "out"
    inode = (out / "network.csv").stat().st_ino
    runner.op()
    assert (out / "network.csv").stat().st_ino == inode and runner.failed == 0
    (out / "stale.csv").write_text("left by an earlier op\n")
    runner.op()
    assert (out / "stale.csv").stat().st_size == 0
    assert runner.failed == 1 and "differ" in runner.problems[0]


def test_counts_must_repeat_between_runs(tmp_path):
    first = _runner(tmp_path, SMALL["epidemic"])
    first.op()
    state = next((tmp_path / "state").rglob("*-io.json"))
    counts = json.loads(state.read_text())
    state.write_text(json.dumps(dict(counts, **{"io.bytes": counts["io.bytes"] + 1})))
    second = _runner(tmp_path, SMALL["epidemic"])
    second.op()
    assert second.failed == 1 and "earlier run" in second.problems[0]


def test_pool_outputs_equal_serial_outputs(tmp_path):
    serial = run_op(SMALL["sweep"], tmp_path / "serial")
    pooled = replace(SMALL["sweep"], options=("--jobs", "2") + SMALL["sweep"].options[2:])
    parallel = run_op(pooled, tmp_path / "parallel")
    assert checks.scan_tree(serial) == checks.scan_tree(parallel)


def test_tracer_counts_spans_and_restores_originals(tmp_path):
    original = prefnet.cli.generate_network
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_op(SMALL["epidemic"], tmp_path / "out")
    finally:
        tracer.uninstall()
    assert prefnet.cli.generate_network is original
    assert tracer.calls["netgen.generate_network"] == 1
    assert tracer.calls["epidemic.run_si"] == 1
    # summarize and the pattern functions each walk the network once more
    assert tracer.networks == 1
    assert tracer.passes["path"] == tracer.calls["netmetrics.shortest_path_matrix"] >= 1
    assert tracer.seconds["netmetrics.summarize"] <= tracer.top_seconds


def test_tracer_sees_pool_and_optimizer(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pooled = replace(SMALL["sweep"], options=("--jobs", "2") + SMALL["sweep"].options[2:])
        run_op(pooled, tmp_path / "sweep")
        run_op(SMALL["optimize"], tmp_path / "fit")
    finally:
        tracer.uninstall()
    assert tracer.calls["cli.pool_map"] == 1
    assert tracer.calls["optimizer.evaluate"] == 20
    assert tracer.calls["netgen.generate_network"] == 20 * 3


def test_benchmark_spec_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    traced = {f"{n}.{kind}" for n in tracing.SPAN_NAMES for kind in ("calls", "s")}
    assert traced <= {m["name"] for m in spec["per_layer"]}


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "sweep_paper", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "sweep_paper", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
