"""Command-line behaviour: artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefnet import cli, netmetrics
from prefnet.artifacts import read_json, write_json
from prefnet.cli import main
from prefnet.scenario import (
    CounterStream, load_scenario, Preference, Rule, save_scenario, Scenario,
)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tree_bytes(root):
    """Relative path -> content for every file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _assert_identical_runs(dir_a, dir_b, given_options=()):
    a, b = _tree_bytes(dir_a), _tree_bytes(dir_b)
    assert set(a) == set(b)
    for rel in a:
        if rel.endswith("manifest.json") or rel.endswith("report.json"):
            continue
        assert a[rel] == b[rel], f"{rel} differs between reruns"
    # manifests agree apart from the recorded runtimes, the cells' included,
    # and the options in `given_options`, which the caller gave differently
    for rel in a:
        if rel.endswith("manifest.json"):
            ma, mb = json.loads(a[rel]), json.loads(b[rel])
            for timed in ("runtimes", "cell_runtimes"):
                ma.pop(timed, None), mb.pop(timed, None)
            for option in given_options:
                ma["options"].pop(option), mb["options"].pop(option)
            assert ma == mb


def test_generate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--out", str(out), "--set", "master_seed=3"]) == 0
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "generate"
    for name in manifest["outputs"]:
        f = out / name
        assert f.is_file() and f.stat().st_size > 0
    summary = _read_json(out / "summary.json")
    assert summary["edge_count"] == 1400
    assert summary["node_count"] == 90
    sc = load_scenario(out / "scenario.txt")
    assert sc.master_seed == 3


def test_generate_preset_and_overrides(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["generate", "--scenario", "preset:B_H-", "--set", "master_seed=5",
         "--out", str(out)]
    )
    assert code == 0
    sc = load_scenario(out / "scenario.txt")
    assert sc.age_shape.value == "Bell"
    assert sc.rule is Rule.H_MINUS
    assert sc.master_seed == 5


STAGES = {
    "generate": ["grow", "write_network", "analyze", "generate"],
    "epidemic": ["grow", "write_network", "analyze", "generate", "epidemic"],
    "optimize": ["target", "draws", "search", "optimize"],
    "sweep": ["target", "sweep", "cell:U_P+", "cell:U_PH"],
}
EXTRA = {
    "optimize": ["--budget", "3", "--replicates", "2"],
    "sweep": ["--shapes", "U", "--rules", "P+,PH", "--taus", "0.2"],
}


@pytest.mark.parametrize("command", ["generate", "epidemic", "optimize", "sweep"])
def test_manifest_records_stage_runtimes(tmp_path, command, capsys):
    out = tmp_path / command
    extra = EXTRA.get(command, [])
    assert main([command, "--out", str(out), "--set", "node_count=30",
                 "--set", "edge_budget=100", *extra]) == 0
    stages = STAGES[command]
    # stage timings stay out of stdout
    assert not any(stage in capsys.readouterr().out.split() for stage in stages)
    manifest = _read_json(out / "manifest.json")
    runtimes = manifest["runtimes"]
    assert sorted(runtimes) == sorted(stages)
    assert all(isinstance(v, float) and v >= 0 for v in runtimes.values())
    # what the seconds were taken with
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_manifest_records_each_cells_stage_runtimes(tmp_path, jobs):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), "--set", "node_count=30",
                 "--set", "edge_budget=100", *EXTRA["sweep"], "--jobs", jobs]) == 0
    manifest = _read_json(out / "manifest.json")
    cells = manifest["cell_runtimes"]
    assert sorted(cells) == ["U_P+", "U_PH"]
    for name, stages in cells.items():
        assert sorted(stages) == ["analyze", "epidemic", "grow", "write_network"]
        assert all(isinstance(v, float) and v >= 0 for v in stages.values())
        # the stages lie within the cell's own seconds (each rounded to 1e-6)
        assert sum(stages.values()) <= manifest["runtimes"][f"cell:{name}"] + 1e-5
    # and stay out of the run's own stages
    assert sorted(manifest["runtimes"]) == sorted(STAGES["sweep"])


@pytest.mark.parametrize(
    "argv",
    [
        ["generate"],
        ["epidemic"],
        ["sweep", "--shapes", "U", "--rules", "P+,PH", "--taus", "0.2,0.8", "--jobs", "1"],
        ["sweep", "--shapes", "U", "--rules", "P+,PH", "--taus", "0.2,0.8", "--jobs", "2"],
        ["optimize", "--budget", "3", "--replicates", "2"],
    ],
    ids=["generate", "epidemic", "sweep-jobs1", "sweep-jobs2", "optimize"],
)
def test_manifest_lists_exactly_the_files_written(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--set", "node_count=30", "--set", "edge_budget=100",
                 "--out", str(out)]) == 0
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    outputs = _read_json(out / "manifest.json")["outputs"]
    assert outputs == sorted(written - {"manifest.json"})


@pytest.mark.parametrize(
    "argv",
    [
        ["generate"],
        ["epidemic"],
        ["sweep", "--shapes", "U,L", "--rules", "P+,PH", "--taus", "0.2,0.8"],
        ["optimize", "--budget", "3", "--replicates", "2"],
    ],
    ids=["generate", "epidemic", "sweep", "optimize"],
)
def test_a_run_reruns_from_its_scenario_and_manifest_options(tmp_path, argv):
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main([*argv, "--set", "node_count=30", "--set", "edge_budget=100",
                 "--set", "master_seed=4", "--out", str(first)]) == 0
    manifest = _read_json(first / "manifest.json")
    assert "target_file" not in manifest  # no edge-list target
    options = []
    for key, value in manifest["options"].items():
        options += [f"--{key}", ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    assert main([manifest["command"], "--scenario", str(first / "scenario.txt"), *options,
                 "--out", str(rerun)]) == 0
    _assert_identical_runs(first, rerun)


def test_manifest_records_an_edgelist_targets_file(tmp_path, monkeypatch):
    # The manifest keeps the target text as given, relative here, and adds
    # the file's absolute path and digest; a rerun from another directory
    # through that path writes the same artifacts.
    size = ["--set", "node_count=30", "--set", "edge_budget=100"]
    assert main(["generate", *size, "--out", str(tmp_path / "gen")]) == 0
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    edges = tmp_path / "a" / "edges.csv"
    edges.write_bytes((tmp_path / "gen" / "network.csv").read_bytes())
    fit = ["optimize", *size, "--budget", "3", "--replicates", "2"]
    monkeypatch.chdir(tmp_path / "a")
    assert main([*fit, "--target", "edgelist:edges.csv", "--out", str(tmp_path / "first")]) == 0
    manifest = _read_json(tmp_path / "first" / "manifest.json")
    assert manifest["options"]["target"] == "edgelist:edges.csv"
    assert manifest["target_file"] == {
        "path": str(edges.resolve()),
        "sha256": hashlib.sha256(edges.read_bytes()).hexdigest(),
    }
    assert main(["sweep", *size, "--shapes", "U", "--rules", "P+", "--taus", "0.5",
                 "--target", "edgelist:edges.csv", "--out", str(tmp_path / "sweep")]) == 0
    sweep = _read_json(tmp_path / "sweep" / "manifest.json")
    assert sweep["target_file"] == manifest["target_file"]

    monkeypatch.chdir(tmp_path / "b")
    given = f"edgelist:{manifest['target_file']['path']}"
    assert main([*fit, "--target", given, "--out", str(tmp_path / "rerun")]) == 0
    rerun = _read_json(tmp_path / "rerun" / "manifest.json")
    assert rerun["options"]["target"] == given
    _assert_identical_runs(tmp_path / "first", tmp_path / "rerun", given_options=("target",))


def test_cli_import_does_not_load_scipy(child_env):
    code = "import sys, prefnet.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout.strip() == "[]"


def test_optimize_does_not_load_numpy_ma(tmp_path, child_env):
    # np.unique imports numpy.ma, about 1.4 MB of resident memory that a
    # fit has no other use for
    code = (
        "import sys; from prefnet.cli import main; "
        f"main(['optimize', '--out', {str(tmp_path)!r}, '--set', 'node_count=45', "
        "'--set', 'edge_budget=350', '--target', 'ba:60,5', '--budget', '30']); "
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_quietly(tmp_path, unbuffered, child_env):
    child_env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        child_env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "prefnet.cli", "generate", "--out", str(tmp_path / "run"),
            "--set", "node_count=30", "--set", "edge_budget=100"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=child_env)
    child.stdout.close()  # the reader goes away before the result line is printed
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == ""
    assert (tmp_path / "run" / "manifest.json").is_file()


def _cap_address_space():
    # 3 GiB of address space: every allocation these runs ask for is far
    # beyond it, and fails at once instead of reaching for the machine.
    limit = 3 << 30
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.parametrize("case", ["distance_cap", "replicates", "edge_list_id"])
def test_a_run_too_large_for_memory_exits_1_naming_the_size_fields(tmp_path, case, child_env):
    # Each run asks numpy for more than 3 GiB: a 52 GiB distance count
    # table, 4.9 GiB of pair draws for 100000 replicates, or degree counts
    # for 10^12 + 1 nodes. Run only under the cap.
    if case == "distance_cap":
        args = ["epidemic", "--set", "distance_cap=1000000000"]
    elif case == "replicates":
        args = ["optimize", "--replicates", "100000", "--budget", "1"]
    else:
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1\n1,1000000000000\n", encoding="utf-8")
        args = ["optimize", "--target", f"edgelist:{edges}", "--budget", "2"]
    argv = [sys.executable, "-m", "prefnet.cli", *args, "--out", str(tmp_path / "run")]
    result = subprocess.run(argv, capture_output=True, text=True, env=child_env, timeout=120,
                            preexec_fn=_cap_address_space)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: Unable to allocate ")
    assert "internal error" not in result.stderr
    for field_name in ("node_count", "edge_budget", "horizon", "distance_cap", "--replicates",
                       "edge-list"):
        assert field_name in result.stderr


def test_out_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PREFNET_OUT", str(tmp_path / "envout"))
    assert main(["generate", "--set", "node_count=30", "--set", "edge_budget=100"]) == 0
    assert (tmp_path / "envout" / "summary.json").is_file()


def test_missing_out_is_validation_error(tmp_path, monkeypatch):
    monkeypatch.delenv("PREFNET_OUT", raising=False)
    assert main(["generate"]) == 1


def test_bad_override_key(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--set", "nodes=9"]) == 1


def test_bad_override_value(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--set", "node_count=-2"]) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_noise_sigma_rejected(tmp_path, capsys, value):
    assert main(["generate", "--out", str(tmp_path), "--set", f"noise_sigma={value}"]) == 1
    assert "noise_sigma" in capsys.readouterr().err


_JITTER_RUNS = {
    "epidemic": [],
    "sweep": ["--shapes", "U", "--rules", "PH", "--taus", "0.2"],
    "optimize": ["--budget", "2", "--replicates", "1"],
}


@pytest.mark.parametrize("command", sorted(_JITTER_RUNS))
def test_noise_sigma_whose_jitter_overflows_rejected(tmp_path, capsys, command):
    # A finite noise_sigma of 1e308 draws jitters beyond the float range,
    # which would reach network.csv as inf gammas; 1e300 still fits.
    args = [command, *_JITTER_RUNS[command]]
    assert main(args + ["--out", str(tmp_path / "big"), "--set", "noise_sigma=1e308"]) == 1
    assert "error: noise_sigma:" in capsys.readouterr().err
    assert main(args + ["--out", str(tmp_path / "ok"), "--set", "noise_sigma=1e300"]) == 0
    for net_csv in (tmp_path / "ok").rglob("network.csv"):
        assert not _NON_FINITE.search(net_csv.read_bytes()), net_csv


def test_missing_scenario_file_is_io_error(tmp_path):
    code = main(["generate", "--scenario", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_epidemic_artifacts(tmp_path):
    out = tmp_path / "epi"
    assert main(["epidemic", "--out", str(out), "--set", "master_seed=1"]) == 0
    risk = _read_json(out / "risk.json")
    assert len(risk["seeds"]) == 1
    assert risk["infected_total"] >= 1
    assert (out / "trace.csv").is_file()
    assert (out / "infection_by_distance.csv").is_file()
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 1 + 90


SMALL_SWEEP = [
    "sweep",
    "--set", "node_count=45",
    "--set", "edge_budget=350",
    "--shapes", "U",
    "--rules", "P+,PH",
    "--taus", "0.2,0.8",
]


def test_sweep_cells_and_tables(tmp_path):
    out = tmp_path / "sweep"
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    assert (out / "cells" / "U_P+" / "network.csv").is_file()
    assert (out / "cells" / "U_PH" / "tau_0.8" / "risk.json").is_file()
    js_rows = (out / "js_table.csv").read_text().strip().splitlines()
    assert len(js_rows) == 1 + 2  # header + one row per cell
    par_rows = (out / "par_table.csv").read_text().strip().splitlines()
    assert len(par_rows) == 1 + 2 * 2  # cells x taus
    aggregate = _read_json(out / "aggregate.json")
    assert [c["name"] for c in aggregate["cells"]] == ["U_P+", "U_PH"]


def test_sweep_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(SMALL_SWEEP + ["--out", str(out_a)]) == 0
    assert main(SMALL_SWEEP + ["--out", str(out_b)]) == 0
    _assert_identical_runs(out_a, out_b)


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(SMALL_SWEEP + ["--out", str(serial)]) == 0
    assert main(SMALL_SWEEP + ["--out", str(parallel), "--jobs", "2"]) == 0
    _assert_identical_runs(serial, parallel)


# A float written as NaN or an infinity by json (NaN, Infinity) or by repr
# (nan, inf); risk tables write an undefined PaR cell as null.
_NON_FINITE = re.compile(rb"\b(NaN|Infinity|nan|inf)\b")


@st.composite
def _small_sweeps(draw):
    n = draw(st.integers(2, 40))
    taus = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True))
    return [
        "sweep",
        "--set", f"node_count={n}",
        "--set", f"edge_budget={draw(st.integers(0, n * (n - 1) // 2))}",
        "--set", f"master_seed={draw(st.integers(0, 2**32 - 1))}",
        "--shapes", ",".join(draw(st.lists(st.sampled_from("UBILR"), min_size=1, max_size=2,
                                           unique=True))),
        "--rules", ",".join(draw(st.lists(st.sampled_from(["P+", "P-", "H+", "H-", "PH"]),
                                          min_size=1, max_size=2, unique=True))),
        "--taus", ",".join(repr(t) for t in taus),
    ]


@settings(max_examples=10, deadline=None)
@given(_small_sweeps())
def test_small_sweeps_rerun_identically_in_parallel_and_stay_finite(sweep):
    # Drawn seeds and sizes: a serial sweep, its rerun and a --jobs 2 sweep
    # exit alike with 0 or 1 and, apart from manifest runtimes, write the
    # same bytes, none of them a NaN or an infinity.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # shortfalls of small budgets
        runs = [Path(tmp, name) for name in ("serial", "rerun", "parallel")]
        codes = [main(sweep + ["--out", str(out), "--jobs", jobs])
                 for out, jobs in zip(runs, ("1", "1", "2"))]
        assert codes[0] in (0, 1) and codes == [codes[0]] * 3
        if codes[0] == 0:
            for out in runs[1:]:
                _assert_identical_runs(runs[0], out)
            for rel, content in _tree_bytes(runs[0]).items():
                assert not _NON_FINITE.search(content), rel


# Overrides that no run accepts: each must exit 1, whatever the command.
_BAD_SETS = [
    "transmissibility=1.5", "encounter_rate=nan", "noise_sigma=inf", "horizon=-1",
    "distance_cap=two", "master_seed=-1", "age_shape=Square", "bogus=1",
]


@st.composite
def _small_runs(draw, command):
    """A generate, epidemic or optimize command line at a drawn size, seed
    and budget, and whether it must exit 1: its edge budget exceeds the
    pairs, or one override is bad."""
    n = draw(st.integers(2, 40))
    max_edges = n * (n - 1) // 2
    edge_budget = draw(st.integers(0, max_edges + 1))
    bad = draw(st.none() | st.sampled_from(_BAD_SETS + [f"seed_count={n + 1}"]))
    args = [
        command,
        "--set", f"node_count={n}",
        "--set", f"edge_budget={edge_budget}",
        "--set", f"master_seed={draw(st.integers(0, 2**32 - 1))}",
    ]
    if command == "optimize":
        args += ["--budget", str(draw(st.integers(1, 30))),
                 "--replicates", str(draw(st.integers(1, 3)))]
    if bad is not None:
        args += ["--set", bad]
    return args, bad is not None or edge_budget > max_edges


@pytest.mark.parametrize("command", ["generate", "epidemic", "optimize"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_small_runs_rerun_identically_and_stay_finite(command, data):
    # Drawn seeds, sizes and budgets: a run and its rerun both exit 0, or
    # both 1 when the input is bad, and, apart from manifest runtimes,
    # write the same bytes, none of them a NaN or an infinity.
    args, bad = data.draw(_small_runs(command))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # shortfalls of small budgets
        runs = [Path(tmp, name) for name in ("run", "rerun")]
        codes = [main(args + ["--out", str(out)]) for out in runs]
        assert codes == [int(bad)] * 2
        if codes[0] == 0:
            _assert_identical_runs(*runs)
            for rel, content in _tree_bytes(runs[0]).items():
                assert not _NON_FINITE.search(content), rel


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize("content", ["i,j\n", ""], ids=["header_only", "empty"])
def test_an_edge_list_target_without_edges_exits_1(tmp_path, capsys, command, content):
    net_csv = tmp_path / "target.csv"
    net_csv.write_text(content, encoding="utf-8")
    args = [command, "--out", str(tmp_path / "run"), "--target", f"edgelist:{net_csv}",
            "--set", "node_count=10", "--set", "edge_budget=10"]
    args += {"sweep": ["--shapes", "U", "--rules", "P+", "--taus", "0.5"],
             "optimize": ["--budget", "2", "--replicates", "1"]}[command]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: target: {net_csv}: the edge list has no edges\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_progress_on_stderr_only(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    assert main(SMALL_SWEEP + ["--out", str(out), "--jobs", jobs]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout == f"sweep: 2 cells x 2 transmissibilities -> {out}\n"
    assert stderr.splitlines() == ["sweep: 1/2 cells", "sweep: 2/2 cells"]


def test_sweep_jobs_below_one_rejected(tmp_path, capsys):
    assert main(SMALL_SWEEP + ["--out", str(tmp_path), "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


def test_sweep_asks_for_no_more_workers_than_cells(tmp_path, monkeypatch):
    # A stand-in pool records the workers asked for and maps in this
    # process, so the test starts no process whatever --jobs says.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    one_cell = ["sweep", "--set", "node_count=45", "--set", "edge_budget=350",
                "--shapes", "U", "--rules", "PH", "--taus", "0.2"]
    serial, wide = tmp_path / "serial", tmp_path / "wide"
    assert main(one_cell + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(one_cell + ["--out", str(wide), "--jobs", "64"]) == 0
    assert asked == []  # one cell runs in this process: no pool at all
    _assert_identical_runs(serial, wide)
    two_cells = ["sweep", "--set", "node_count=45", "--set", "edge_budget=350",
                 "--shapes", "U", "--rules", "P+,PH", "--taus", "0.2"]
    serial, wide = tmp_path / "serial2", tmp_path / "wide2"
    assert main(two_cells + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(two_cells + ["--out", str(wide), "--jobs", "64"]) == 0
    assert asked == [2]
    _assert_identical_runs(serial, wide)


@pytest.mark.parametrize("out", ["run/", "./run", "run"])
def test_run_directory_prints_as_given_without_trailing_separator(tmp_path, monkeypatch, capsys,
                                                                  out):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--out", out]) == 0
    assert capsys.readouterr().out.endswith(" -> run\n")
    assert (tmp_path / "run" / "manifest.json").is_file()


@pytest.mark.parametrize("kind", ["missing", "empty", "directory"])
def test_manifest_rejects_a_missing_or_empty_output(tmp_path, kind):
    run = cli._RunDir(tmp_path)
    Path(run.path("written.txt")).write_text("x\n")
    target = Path(run.path("bad"))
    if kind == "empty":
        target.write_text("")
    elif kind == "directory":
        target.mkdir()
    with pytest.raises(AssertionError, match="missing or empty output: bad"):
        run.write_manifest("generate", Scenario(), {})
    assert not (tmp_path / "manifest.json").exists()


def test_sweep_computes_shared_inputs_once(tmp_path, monkeypatch):
    # 2 shapes x 2 rules x 3 taus: one pair draw per sweep, one population
    # per shape, one run_si per cell for its whole tau ladder, and one set
    # of infection uniforms per cell and step, shared by the cell's taus.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sweep = ["sweep", "--set", "node_count=45", "--set", "edge_budget=350",
             "--shapes", "U,B", "--rules", "P+,PH", "--taus", "0.0,0.5,1.0"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    with monkeypatch.context() as patch:
        for name in ("pair_draws", "make_population", "run_si"):
            patch.setattr(cli, name, counted(name, getattr(cli, name)))
        patch.setattr(CounterStream, "uniforms", counted("uniforms", CounterStream.uniforms))
        assert main(sweep + ["--out", str(serial), "--jobs", "1"]) == 0
    horizon = Scenario().horizon
    assert calls == {"pair_draws": 1, "make_population": 2, "run_si": 4, "uniforms": 4 * horizon}
    assert main(sweep + ["--out", str(parallel), "--jobs", "2"]) == 0
    _assert_identical_runs(serial, parallel)


def test_metric_kernels_run_once_per_network(tmp_path, monkeypatch):
    calls = {"clustering_values": [], "shortest_path_matrix": []}
    for name, seen in calls.items():
        kernel = getattr(netmetrics, name)

        def counted(net, kernel=kernel, seen=seen):
            seen.append(net)  # held, so ids stay distinct
            return kernel(net)

        monkeypatch.setattr(netmetrics, name, counted)
    assert main(["generate", "--out", str(tmp_path / "gen"), "--set", "node_count=30",
                 "--set", "edge_budget=100"]) == 0
    assert main(SMALL_SWEEP + ["--out", str(tmp_path / "sweep")]) == 0
    for seen in calls.values():
        assert len(seen) == 3  # one generated network plus two sweep cells
        assert len({id(net) for net in seen}) == 3


def test_sweep_bad_axis_values(tmp_path, capsys):
    assert main(["sweep", "--shapes", "Q", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--taus", "0.2,nope", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--taus", "1.5", "--out", str(tmp_path)]) == 1
    # a repeated value would run the same cell twice into one directory, and
    # an empty tau is a malformed list, not one value fewer
    for axis, values in [("shapes", "U,U"), ("shapes", "U,Uniform"),
                         ("rules", "H-,H-"), ("taus", "0.2,0.20"),
                         ("taus", "0.2,,0.4"), ("taus", "0.2,")]:
        capsys.readouterr()
        assert main(["sweep", f"--{axis}", values, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {axis}: ")


@pytest.mark.parametrize(
    "source", ["set", "scenario file", "preset"], ids=["set", "file", "preset"]
)
def test_sweep_rejects_a_preference_override(tmp_path, capsys, source):
    # cells take their preference from --rules, so an override would be ignored
    scenario_file = tmp_path / "pref.scenario"
    save_scenario(Scenario(preference=Preference(1, 1.0, 1, 0.0)), scenario_file)
    options = {
        "set": ["--set", "preference=1 1.0 1 0.0"],
        "scenario file": ["--scenario", str(scenario_file)],
        "preset": ["--scenario", "preset:U_PH"],
    }[source]
    out = tmp_path / "sweep"
    assert main(["sweep", *options, "--shapes", "U", "--rules", "PH", "--taus", "0.2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: preference: ") and "--rules" in err
    assert not out.exists()


def test_optimize_artifacts(tmp_path):
    out = tmp_path / "opt"
    code = main(
        ["optimize", "--out", str(out),
         "--set", "node_count=45", "--set", "edge_budget=350",
         "--budget", "4", "--replicates", "2"]
    )
    assert code == 0
    log_rows = (out / "eval_log.csv").read_text().strip().splitlines()
    assert len(log_rows) == 1 + 4 * 2  # budget x replicates
    best = _read_json(out / "best.json")
    assert best["evaluations"] == 4
    fitted = load_scenario(out / "fitted.scenario")
    assert fitted.rule is Rule.PH
    assert isinstance(fitted.preference, Preference)
    assert fitted.preference.level == best["best"]["level"]


def test_optimize_reports_progress_on_stderr_only(tmp_path, capsys, monkeypatch):
    argv = ["optimize", "--set", "node_count=45", "--set", "edge_budget=350",
            "--budget", "470", "--replicates", "1"]
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    assert main(argv + ["--out", str(loud)]) == 0
    out, err = capsys.readouterr()
    search = cli.optimize
    monkeypatch.setattr(cli, "optimize", lambda *a, **kw: search(*a, **{**kw, "progress": None}))
    assert main(argv + ["--out", str(quiet)]) == 0
    quiet_out, quiet_err = capsys.readouterr()
    assert quiet_err == ""
    assert out.replace(str(loud), str(quiet)) == quiet_out
    _assert_identical_runs(loud, quiet)
    lines = err.splitlines()
    found = [re.fullmatch(r"optimize: (\d+)/470 evaluations, best js (\d\.\d{4})", line)
             for line in lines]
    assert lines and all(found), lines
    spent = [int(m[1]) for m in found]
    best = [float(m[2]) for m in found]
    # one line after the 441-candidate grid, then one per step halving
    assert spent[0] == 441 and len(lines) > 1
    assert spent == sorted(spent) and best == sorted(best, reverse=True)
    assert f"js {best[-1]:.4f} after {spent[-1]} evaluations" in out


def test_optimize_explicit_ba_target(tmp_path):
    out = tmp_path / "opt"
    code = main(
        ["optimize", "--out", str(out),
         "--set", "node_count=45", "--set", "edge_budget=350",
         "--target", "ba:45,10", "--budget", "2", "--replicates", "1"]
    )
    assert code == 0
    target_rows = (out / "target_degree_distribution.csv").read_text().splitlines()
    assert len(target_rows) == 1 + 45


def test_optimize_edgelist_target(tmp_path):
    net_csv = tmp_path / "target.csv"
    out = tmp_path / "gen"
    assert main(["generate", "--out", str(out), "--set", "node_count=45",
                 "--set", "edge_budget=350"]) == 0
    (net_csv).write_bytes((out / "network.csv").read_bytes())
    opt_out = tmp_path / "opt"
    code = main(
        ["optimize", "--out", str(opt_out),
         "--set", "node_count=45", "--set", "edge_budget=350",
         "--target", f"edgelist:{net_csv}", "--budget", "2", "--replicates", "1"]
    )
    assert code == 0


def test_optimize_malformed_edgelist_target(tmp_path, capsys):
    net_csv = tmp_path / "target.csv"
    net_csv.write_text("i,j\n0,1\n2\n", encoding="utf-8")
    code = main(["optimize", "--out", str(tmp_path / "opt"),
                 "--target", f"edgelist:{net_csv}", "--budget", "2", "--replicates", "1"])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_optimize_non_finite_edgelist_target(tmp_path, capsys):
    net_csv = tmp_path / "target.csv"
    net_csv.write_text("i,j,gamma\n0,1,1.0\n1,2,nan\n", encoding="utf-8")
    code = main(["optimize", "--out", str(tmp_path / "opt"),
                 "--target", f"edgelist:{net_csv}", "--budget", "2", "--replicates", "1"])
    assert code == 1
    assert "line 3: gamma must be finite" in capsys.readouterr().err


def test_optimize_repeated_edgelist_row_names_both_lines(tmp_path, capsys):
    net_csv = tmp_path / "dup.csv"
    net_csv.write_text("i,j\n0,1\n1,2\n0,1\n", encoding="utf-8")
    code = main(["optimize", "--out", str(tmp_path / "opt"),
                 "--target", f"edgelist:{net_csv}", "--budget", "2", "--replicates", "1"])
    assert code == 1
    assert f"{net_csv}: lines 2 and 4: repeated edge 0,1" in capsys.readouterr().err


def test_optimize_edgelist_id_beyond_int64_names_the_line(tmp_path, capsys):
    # max id + 1 is the node count, which must fit int64
    net_csv = tmp_path / "target.csv"
    net_csv.write_text("i,j\n0,1\n0,9223372036854775807\n", encoding="utf-8")
    code = main(["optimize", "--out", str(tmp_path / "opt"),
                 "--target", f"edgelist:{net_csv}", "--budget", "2", "--replicates", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {net_csv}: line 3: node id")


def test_optimize_bad_target(tmp_path):
    assert main(["optimize", "--out", str(tmp_path), "--target", "ba:90"]) == 1
    assert main(["optimize", "--out", str(tmp_path), "--target", "magic:1"]) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["--target", "ba:5,0"], "error: target: ba:5,0: need 1 <= m < n"),
        (["--set", "node_count=1", "--set", "edge_budget=0"],
         "error: target (default, sized to node_count=1): ba:1,1: need 1 <= m < n"),
    ],
    ids=["explicit", "default"],
)
def test_optimize_impossible_ba_target_names_target(tmp_path, capsys, args, message):
    assert main(["optimize", "--out", str(tmp_path)] + args) == 1
    assert capsys.readouterr().err.startswith(message)


def _record_draws(monkeypatch) -> list:
    """Patch the CLI's replicate_draws to record its calls."""
    calls, draw = [], cli.replicate_draws

    def recording(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(cli, "replicate_draws", recording)
    return calls


def test_optimize_zero_budget_rejected(tmp_path, capsys, monkeypatch):
    # before any draw: many replicates take seconds to draw
    calls = _record_draws(monkeypatch)
    assert main(["optimize", "--out", str(tmp_path), "--budget", "0"]) == 1
    assert capsys.readouterr().err == "error: budget must be positive, got 0\n"
    assert calls == []


def test_optimize_builds_its_draws_once(tmp_path, monkeypatch):
    calls = _record_draws(monkeypatch)
    assert main(["optimize", "--out", str(tmp_path), "--set", "node_count=30",
                 "--set", "edge_budget=100", "--budget", "30", "--replicates", "2"]) == 0
    assert [replicates for _, replicates, _ in calls] == [2]


def test_report_on_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["command"] == "sweep"
    assert set(report["js"]) == {"U_P+", "U_PH"}
    text = capsys.readouterr().out
    assert "best cell" in text
    # the seconds spent building the target are a stage of their own
    manifest = _read_json(out / "manifest.json")
    seconds = manifest["runtimes"]["target"]
    assert f"  runtime target {seconds:.3f} s" in text.splitlines()
    # each cell stage summed over the cells, with its share of the four
    stages = ["grow", "write_network", "analyze", "epidemic"]
    totals = {s: sum(cell[s] for cell in manifest["cell_runtimes"].values()) for s in stages}
    whole = sum(totals.values())
    assert report["cell_stages"] == {
        s: {"seconds": totals[s], "share": totals[s] / whole} for s in stages}
    line = "  cell stages " + ", ".join(
        f"{s} {totals[s]:.3f} s ({totals[s] / whole:.0%})" for s in stages)
    assert line in text.splitlines()


def test_report_final_share_is_at_the_largest_tau(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--shapes", "U", "--rules", "P+", "--taus", "1.0,0.0"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    (cell,) = _read_json(out / "aggregate.json")["cells"]
    shares = {row["tau"]: row["final_share"] for row in cell["par"]}
    assert shares[1.0] > shares[0.0]
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "max tau" in line]
    assert line.endswith(f"final share at max tau {shares[1.0]:.3f}")


def test_report_on_epidemic(tmp_path, capsys):
    out = tmp_path / "epi"
    assert main(["epidemic", "--out", str(out), "--set", "node_count=45",
                 "--set", "edge_budget=350"]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["command"] == "epidemic"
    assert "risk" in report and "summary" in report
    assert "cell_stages" not in report  # a sweep's alone
    runtimes = _read_json(out / "manifest.json")["runtimes"]
    assert report["runtimes"] == runtimes
    assert set(runtimes) == {"grow", "write_network", "analyze", "generate", "epidemic"}
    printed = [line for line in capsys.readouterr().out.splitlines() if "runtime" in line]
    assert printed == [f"  runtime {stage} {s:.3f} s" for stage, s in runtimes.items()]


@pytest.mark.parametrize(
    "text, field",
    [
        ("{}", "command"),
        ("[1]", "expected a JSON object"),
        ('{"command": 1, "version": "1"}', "command"),
        ('{"command": "generate"}', "version"),
        ('{"command": "generate", "version": "1", "runtimes": {"grow": "fast"}}', "runtimes"),
        ('{"command": "generate", "version": "1", "runtimes": [1.0]}', "runtimes"),
        ('{"command": "generate", "version": "1", "runtimes": {"grow": true}}', "runtimes.grow"),
        ("not json", "Expecting value"),
        ('{"command": "sweep", "version": "1", "runtimes": {}, "cell_runtimes": '
         '{"U_P+": {"grow": 0.1, "write_network": "slow", "analyze": 0.1, "epidemic": 0.1}}}',
         "cell_runtimes.U_P+.write_network"),
        ('{"command": "sweep", "version": "1", "runtimes": {}, "cell_runtimes": [0.1]}',
         "cell_runtimes"),
        # only finite numbers: JSON's NaN and infinities, and a number that
        # parses to infinity
        ('{"command": "generate", "version": "1", "runtimes": {"grow": 1e999}}',
         "runtimes.grow"),
        ('{"command": "generate", "version": "1", "runtimes": {"grow": NaN}}',
         "expected finite numbers, got NaN"),
        ('{"command": "generate", "version": "1", "runtimes": {"grow": -Infinity}}',
         "expected finite numbers, got -Infinity"),
        ('{"command": "sweep", "version": "1", "runtimes": {}, "cell_runtimes": '
         '{"U_P+": {"grow": 0.1, "write_network": 0.1, "analyze": -1e999, "epidemic": 0.1}}}',
         "cell_runtimes.U_P+.analyze"),
    ],
    ids=["empty", "list", "command", "version", "runtime", "runtimes", "runtime-bool",
         "not-json", "cell-stage", "cell-runtimes", "runtime-overflow", "runtime-nan",
         "runtime-infinity", "cell-stage-overflow"],
)
def test_report_rejects_a_malformed_manifest(tmp_path, capsys, text, field):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text, encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: {field}")
    assert not (tmp_path / "report.json").exists()


_CELL = {"name": "U_P+", "js": 0.4, "unconnected": 7, "clustering_avg": 0.6,
         "par": [{"tau": 1.0, "final_share": 0.9}]}


@pytest.mark.parametrize(
    "name, payload, field",
    [
        ("aggregate.json", {}, "target"),
        ("aggregate.json", {"target": "ba:90,20", "cells": []}, "cells"),
        ("aggregate.json", {"target": "ba:90,20", "cells": [_CELL, {**_CELL, "js": None}]},
         "cells[1].js"),
        ("aggregate.json", {"target": "ba:90,20", "cells": [{**_CELL, "par": [1]}]},
         "cells[0].par[0]"),
        ("aggregate.json",
         {"target": "ba:90,20", "cells": [{**_CELL, "par": [{"final_share": 0.9}]}]},
         "cells[0].par[0].tau"),
        ("best.json", {}, "best"),
        ("best.json", {"best": {}, "objective": 0.2, "evaluations": True}, "evaluations"),
        ("risk.json", {"seeds": [3], "infected_total": 45}, "final_share"),
        ("summary.json", [], "expected a JSON object"),
        # a cell with no taus has no final share to print
        ("aggregate.json", {"target": "ba:90,20", "cells": [{**_CELL, "par": []}]},
         "cells[0].par: expected at least one entry, got []"),
        # only finite numbers (json.dumps writes NaN and Infinity; a string
        # payload is the file's text)
        ("risk.json", {"seeds": [3], "infected_total": 45, "final_share": float("nan")},
         "expected finite numbers, got NaN"),
        ("risk.json", '{"seeds": [3], "infected_total": 45, "final_share": 1e999}',
         "final_share"),
        ("aggregate.json", '{"target": "ba:90,20", "cells": [{"name": "U_P+", "js": -1e999, '
         '"unconnected": 7, "clustering_avg": 0.6, "par": [{"tau": 1.0, "final_share": 0.9}]}]}',
         "cells[0].js"),
        ("aggregate.json",
         {"target": "ba:90,20", "cells": [{**_CELL, "par": [{"tau": 1.0,
                                                              "final_share": float("inf")}]}]},
         "expected finite numbers, got Infinity"),
        ("best.json", '{"best": {}, "objective": 1e999, "evaluations": 4}', "objective"),
        ("summary.json", {"degree_avg": float("nan")}, "expected finite numbers, got NaN"),
    ],
    ids=["aggregate-empty", "aggregate-no-cells", "aggregate-cell-js", "aggregate-par",
         "aggregate-par-tau",
         "best-empty", "best-evaluations", "risk-final-share", "summary-list",
         "aggregate-no-taus", "risk-nan", "risk-overflow", "aggregate-js-overflow",
         "aggregate-infinity", "best-overflow", "summary-nan"],
)
def test_report_rejects_a_malformed_run_file(tmp_path, capsys, name, payload, field):
    (tmp_path / "manifest.json").write_text('{"command": "sweep", "version": "1"}',
                                            encoding="utf-8")
    text = payload if isinstance(payload, str) else json.dumps(payload)
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}: {field}")
    assert not (tmp_path / "report.json").exists()


@st.composite
def _edge_scenarios(draw):
    """The --set fields of a small scenario drawn at the edges of its
    ranges: one or two nodes, no seeds, a zero horizon, no encounters."""
    n = draw(st.sampled_from([1, 2, 3, 12]))
    return {
        "node_count": n,
        "edge_budget": draw(st.integers(0, n * (n - 1) // 2)),
        "seed_count": draw(st.integers(0, n)),
        "horizon": draw(st.sampled_from([0, 1, 6])),
        "encounter_rate": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "noise_sigma": draw(st.sampled_from([0.0, 0.005])),
        "transmissibility": draw(st.sampled_from([0.0, 0.8, 1.0])),
        "master_seed": draw(st.integers(0, 2**16)),
    }


def _finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=12, deadline=None)
@given(_edge_scenarios())
@example({"node_count": 1, "edge_budget": 0, "seed_count": 0, "horizon": 0,
          "encounter_rate": 0.0, "noise_sigma": 0.0, "transmissibility": 0.0, "master_seed": 0})
@example({"node_count": 2, "edge_budget": 1, "seed_count": 2, "horizon": 0,
          "encounter_rate": 1.0, "noise_sigma": 0.005, "transmissibility": 1.0, "master_seed": 1})
def test_every_json_file_a_command_writes_parses_with_read_json(options):
    # generate, epidemic, a one-cell sweep and a 3-evaluation optimize; a
    # fixed target keeps the n=1 scenarios valid for the last two
    overrides = [arg for key, value in options.items() for arg in ("--set", f"{key}={value}")]
    target = ["--target", "ba:4,1"]
    commands = [["generate"], ["epidemic"],
                ["sweep", "--shapes", "U", "--rules", "P+", "--taus", "0.5", *target],
                ["optimize", "--budget", "3", "--replicates", "2", *target]]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # budgets above the met pairs warn
        for k, command in enumerate(commands):
            out = Path(tmp) / str(k)
            assert main([*command, *overrides, "--out", str(out)]) == 0
            documents = sorted(out.rglob("*.json"))
            assert documents
            for path in documents:
                assert _finite(read_json(path)), path


def test_report_checks_every_summary_field(tmp_path, capsys):
    # A hand-made run directory whose summary.json holds a number that
    # overflows to infinity: report exits 1 naming that file and field, and
    # writes no report.json.
    (tmp_path / "manifest.json").write_text('{"command": "generate", "version": "1"}',
                                            encoding="utf-8")
    summary = {f.name: 1 for f in dataclasses.fields(netmetrics.SummaryStats)}
    text = json.dumps(summary).replace('"degree_avg": 1', '"degree_avg": 1e999')
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / 'summary.json'}: degree_avg: expected a finite number, got inf")
    assert not (tmp_path / "report.json").exists()
    # every field is checked, the last one too
    (tmp_path / "summary.json").write_text(json.dumps({**summary, "path_min": "1"}),
                                           encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 1
    assert "summary.json: path_min: expected a finite number" in capsys.readouterr().err
    (tmp_path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert main(["report", str(tmp_path)]) == 0
    assert read_json(tmp_path / "report.json")["summary"] == summary


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    # a run file holds finite numbers only; the error names the file, and
    # nothing is written
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float values")):
        write_json(path, {"share": [0.5, value]})
    assert not path.exists()


def test_report_missing_dir(tmp_path):
    assert main(["report", str(tmp_path / "absent")]) == 2
