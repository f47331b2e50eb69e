"""Command-line behaviour: artifacts, determinism, exit codes."""

import json

import pytest

from prefnet import netmetrics
from prefnet.cli import main
from prefnet.scenario import load_scenario, Preference, Rule


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


def _assert_identical_runs(dir_a, dir_b):
    a, b = _tree_bytes(dir_a), _tree_bytes(dir_b)
    assert set(a) == set(b)
    for rel in a:
        if rel.endswith("manifest.json") or rel.endswith("report.json"):
            continue
        assert a[rel] == b[rel], f"{rel} differs between reruns"
    # manifests agree apart from the recorded runtimes
    for rel in a:
        if rel.endswith("manifest.json"):
            ma, mb = json.loads(a[rel]), json.loads(b[rel])
            ma.pop("runtimes"), mb.pop("runtimes")
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


def test_sweep_jobs_below_one_rejected(tmp_path, capsys):
    assert main(SMALL_SWEEP + ["--out", str(tmp_path), "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


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


def test_sweep_bad_axis_values(tmp_path):
    assert main(["sweep", "--shapes", "Q", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--taus", "0.2,nope", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--taus", "1.5", "--out", str(tmp_path)]) == 1


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


def test_optimize_bad_target(tmp_path):
    assert main(["optimize", "--out", str(tmp_path), "--target", "ba:90"]) == 1
    assert main(["optimize", "--out", str(tmp_path), "--target", "magic:1"]) == 1


def test_optimize_zero_budget_rejected(tmp_path):
    assert main(["optimize", "--out", str(tmp_path), "--budget", "0"]) == 1


def test_report_on_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["command"] == "sweep"
    assert set(report["js"]) == {"U_P+", "U_PH"}
    text = capsys.readouterr().out
    assert "best cell" in text


def test_report_on_epidemic(tmp_path):
    out = tmp_path / "epi"
    assert main(["epidemic", "--out", str(out), "--set", "node_count=45",
                 "--set", "edge_budget=350"]) == 0
    assert main(["report", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["command"] == "epidemic"
    assert "risk" in report and "summary" in report


def test_report_missing_dir(tmp_path):
    assert main(["report", str(tmp_path / "absent")]) == 2
