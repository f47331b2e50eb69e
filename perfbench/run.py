"""prefnet benchmark: times the paper's workflows end to end and per module.

    python3 perfbench/run.py --workload sweep_paper --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, checked
    python3 perfbench/run.py --record-golden    # rewrite golden.json (seed 0)

A run measures set-up time in fresh interpreters, then starts worker.py,
which runs the workload's ops in a closed loop with one client and checks
every output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Lines before
it, starting with '#', record the environment and diagnostics.

Run from anywhere; it finds prefnet under src/ next to this directory and
writes only under .perfbench_run/ there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0

TIME_LIMIT_S = 170.0
# Set-up samples are taken in two halves, before and after the timed
# loop, so that their median spans the whole run's host conditions.
SETUP_RUNS = 3

# One BLAS thread per process: the pool workload runs two processes on
# two cores, and a single thread keeps the other workloads steady too.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# What a user of the CLI pays before any work starts: importing the CLI,
# resolving the scenario and building the degree target.
SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import prefnet.cli
from prefnet.netgen import ba_target
from prefnet.netmetrics import degree_distribution
from prefnet.scenario import RngPolicy, Scenario, apply_overrides
args = prefnet.cli.build_parser().parse_args(json.loads(sys.argv[2]))
scenario = apply_overrides(Scenario(), args.set or [])
target = json.loads(sys.argv[3])
if target:
    stream = RngPolicy(scenario.master_seed).stream("optimizer", 0)
    degree_distribution(ba_target(target[0], target[1], stream))
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the whole group if it
    outlives the deadline. Returns its stdout."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=child_env(), text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(args[1]).name if len(args) > 1 else args[0]} exited with {proc.returncode}")
    return out


def measure_setup(workload, seed: int, deadline: float, warm: bool) -> list[float]:
    """Set-up seconds of SETUP_RUNS fresh interpreters, after one untimed
    run that fills caches and compiles bytecode unless `warm`."""
    argv = workload.argv(seed, WORK / "unused")[:-2]
    target = json.dumps(workload.target)
    samples = []
    for _ in range(SETUP_RUNS + (not warm)):
        out = run_child([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(argv), target], deadline)
        samples.append(float(out.strip().splitlines()[-1]))
    return samples[-SETUP_RUNS:]


def run_worker(name: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    config = {
        "root": str(ROOT),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "mode": mode,
        "run_dir": str(WORK / f"{name}-{os.getpid()}"),
        "state_dir": str(WORK / "state"),
    }
    try:
        out = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(config)], deadline)
    finally:
        shutil.rmtree(config["run_dir"], ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def percentile_line(walls: list[float]) -> str:
    """The median and the highest percentile with at least ten samples
    beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6f} s over {n} ops"
    rank = n - 10  # 1-based rank with ten samples above it
    if 2 * rank > n:
        text += f", p{100 * rank // n} {ordered[rank - 1]:.6f} s"
    else:
        text += ", too few ops for a percentile above the median with ten beyond it"
    return text


def measure(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    setup = measure_setup(workload, args.seed, deadline, warm=False)
    result = run_worker(workload.name, args.seed, args.seconds, "trace" if args.trace else "time", deadline)
    setup += measure_setup(workload, args.seed, deadline, warm=True)

    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# setup_s samples {[round(s, 6) for s in setup]}")
    print(f"# wall_s {percentile_line(result['wall'])}")
    print(f"# probe_s before {result['probe_before_s']:.6f} after {result['probe_after_s']:.6f} (host speed gauge)")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")

    if args.trace:
        layers = result["per_layer"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["wall"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(result["cpu"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def smoke(args) -> int:
    """Each workload once, with every output check; exit 1 on any failure."""
    deadline = time.monotonic() + 3 * TIME_LIMIT_S
    bad = 0
    for name in WORKLOADS:
        result = run_worker(name, args.seed, 0, "once", deadline)
        ok = result["failed"] == 0
        bad += not ok
        print(f"smoke {name}: {'ok' if ok else 'FAILED'} ({result['wall'][0]:.3f} s)")
        for problem in result["problems"]:
            print(f"  {problem}")
    return 1 if bad else 0


def record_golden(args) -> int:
    """Write the sha256 of every artifact at seed 0, per distinct workload."""
    deadline = time.monotonic() + 3 * TIME_LIMIT_S
    digests = {}
    for name, workload in WORKLOADS.items():
        if workload.same_outputs_as is None:
            result = run_worker(name, GOLDEN_SEED, 0, "record", deadline)
            if result["failed"]:
                print("\n".join(result["problems"]), file=sys.stderr)
                return 1
            digests[name] = result["digests"]
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED, help="master_seed of every op")
    parser.add_argument("--seconds", type=int, default=22, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if not (SRC / "prefnet" / "cli.py").is_file():
        print(f"perfbench: no prefnet sources at {SRC / 'prefnet'}", file=sys.stderr)
        return 2
    if not (args.smoke or args.record_golden or args.workload):
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke(args)
        if args.record_golden:
            return record_golden(args)
        return measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
