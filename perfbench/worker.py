"""Run one workload's ops in this process and print what they measured.

run.py starts this file as its own process, so the peak RSS it reports
covers the workload alone: this process and the sweep's pool workers.
Each op is one `prefnet.cli.main(argv)` call writing to the run's output
directory; preparing and checking that directory happen outside the timed
region. The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Workload

GOLDEN = Path(__file__).resolve().parent / "golden.json"
PASS_FUNCTIONS = tuple(f"{m}.{f}" for m, f in tracing.PASSES)


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe() -> float:
    """Seconds for a fixed piece of Python and numpy work: a gauge of host
    speed, recorded beside the metrics and never mixed into them."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i % 7
    a = np.random.default_rng(0).random((200, 200))
    for _ in range(30):
        a = np.tanh(a @ a / 200.0)
    return time.perf_counter() - started


def source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding `path`, from this process's mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fs = fields[fields.index("-") + 1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fs
    except (OSError, ValueError, IndexError):
        pass
    return kind


def environment(run_dir: Path, workload: Workload) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "processes": workload.jobs,
        "output_fs": filesystem_of(run_dir),
    }


class Runner:
    """Runs ops of one workload and checks every output."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, state_dir: Path, src: Path):
        import prefnet.cli

        self.cli = prefnet.cli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.state_dir = state_dir / source_hash(src)
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        self.last_digests: dict[str, str] = {}
        self.counts: dict[str, dict] = {}
        self.prepared_for: Workload | None = None
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = (
            golden["digests"].get(workload.golden_key) if golden.get("seed") == seed else None
        )

    def op(self, workload: Workload | None = None, tracer=None, same_outputs=True) -> dict:
        """One op: run the command, then check and digest its outputs.
        With `same_outputs`, the artifacts must also equal those of every
        other such op of this run."""
        workload = workload or self.workload
        out = self.run_dir / "out"
        self._prepare(out, workload)
        self.ops += 1
        argv = workload.argv(self.seed, out)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        sink = io.StringIO()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        finally:
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if tracer is not None:
                tracer.uninstall()

        problems = [f"exit code {rc}"] if rc != 0 else checks.verify(out, workload, self.seed)
        self.last_digests, files, size = checks.scan_tree(out)
        record = {"wall": wall, "cpu": cpu, "io.files": files, "io.bytes": size}
        if not problems and same_outputs:
            problems += self._compare_outputs(self.last_digests)
            problems += self._compare_counts("io", {"io.files": files, "io.bytes": size})
            if tracer is not None:
                problems += self._compare_counts("calls", dict(tracer.calls))
        if tracer is not None:
            record["trace"] = self._trace_record(tracer, wall)
        if problems:
            self.failed += 1
            self.problems.append(f"op {self.ops - 1} ({' '.join(argv[:-2])}): " + "; ".join(problems[:3]))
        return record

    def _prepare(self, out: Path, workload: Workload) -> None:
        """Ready the op's output directory. The first op with a given argv
        writes to a fresh one. Later ops write over the files of the op
        before, each emptied first, so a file the command no longer writes
        is left empty and fails the checks. Creating a file on the disk
        costs kernel time that swings with the host (about 0.4 ms each on
        a shared 2-core host, 0.25-0.7 s for a sweep's 606 files), while
        writing over an existing one costs little more than on tmpfs."""
        if workload != self.prepared_for:
            shutil.rmtree(out, ignore_errors=True)
            self.prepared_for = workload
            return
        for path in out.rglob("*"):
            if path.is_file():
                os.truncate(path, 0)

    def _compare_outputs(self, digests: dict[str, str]) -> list[str]:
        problems = []
        if self.golden is not None and digests != self.golden:
            differ = sorted(k for k in set(digests) | set(self.golden) if digests.get(k) != self.golden.get(k))
            problems.append(f"{len(differ)} artifacts differ from the golden digests, e.g. {differ[:3]}")
        combined = checks.combined_digest(digests)
        if self.reference is None:
            self.reference = combined
            problems += self._compare_state(f"{self.workload.golden_key}-{self.seed}-outputs", {"digest": combined})
        elif combined != self.reference:
            problems.append("artifacts differ from the first op of this run")
        return problems

    def _compare_counts(self, kind: str, counts: dict) -> list[str]:
        """Counts must repeat exactly from op to op and from run to run."""
        if kind not in self.counts:
            self.counts[kind] = counts
            key = f"{self.workload.golden_key if kind == 'io' else self.workload.name}-{self.seed}-{kind}"
            return self._compare_state(key, counts)
        if counts != self.counts[kind]:
            return [f"{kind} counts differ from the first op: {counts} != {self.counts[kind]}"]
        return []

    def _compare_state(self, key: str, values: dict) -> list[str]:
        """Compare with what an earlier run of the same sources and seed
        recorded in this checkout, or record it for later runs."""
        path = self.state_dir / f"{key}.json"
        if path.is_file():
            earlier = json.loads(path.read_text())
            if earlier != values:
                return [f"{key} differs from an earlier run: {values} != {earlier}"]
            return []
        self.state_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(values, sort_keys=True))
        os.replace(tmp, path)
        return []

    @staticmethod
    def _trace_record(tracer: tracing.Tracer, wall: float) -> dict:
        names = tracing.SPAN_NAMES + PASS_FUNCTIONS
        record = {f"{n}.calls": tracer.calls[n] for n in names}
        record.update({f"{n}.s": tracer.seconds[n] for n in names})
        record["cli.self_s"] = wall - tracer.top_seconds
        networks = tracer.networks
        for kind in ("path", "clustering"):
            passes = tracer.passes[kind]
            record[f"netmetrics.{kind}_passes_per_network"] = passes / networks if networks else 0.0
        return record


def run_timed(runner: Runner, seconds: float, trace: bool) -> dict:
    """Warm up, then run ops (or untraced/traced pairs) for `seconds`. A
    step starts while at least half of a typical step still fits, so the
    timed loop ends within half a step of `seconds` on average."""
    workload = runner.workload
    if workload.same_outputs_as:
        runner.op(WORKLOADS[workload.same_outputs_as])
    runner.op(workload.warmup(), same_outputs=not workload.warmup_changes)

    tracer = tracing.Tracer() if trace else None
    plain, traced, steps = [], [], []
    started = time.perf_counter()
    while not steps or time.perf_counter() - started + statistics.median(steps) / 2 <= seconds:
        step_start = time.perf_counter()
        plain.append(runner.op())
        if tracer is not None:
            traced.append(runner.op(tracer=tracer))
        steps.append(time.perf_counter() - step_start)
    return {"plain": plain, "traced": traced}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Median of each traced time over the traced ops (counts repeat
    exactly, so the first op's stand), plus the tracing overhead: median
    traced wall minus median untraced wall."""
    figures = dict(traced[0]["trace"])
    for key in figures:
        if not key.endswith(".calls"):
            figures[key] = statistics.median(op["trace"][key] for op in traced)
    figures["io.files"] = traced[0]["io.files"]
    figures["io.bytes"] = traced[0]["io.bytes"]
    figures["trace.overhead_s"] = statistics.median(op["wall"] for op in traced) - statistics.median(
        op["wall"] for op in plain
    )
    return figures


def main() -> int:
    config = json.loads(sys.argv[1])
    root = Path(config["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[config["workload"]]
    run_dir = Path(config["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, config["seed"], run_dir, Path(config["state_dir"]), src)
    result = {"env": environment(run_dir, workload)}

    if config["mode"] in ("once", "record"):
        if config["mode"] == "record":
            runner.golden = None
        result["wall"] = [runner.op()["wall"]]
        result["digests"] = runner.last_digests
    else:
        result["probe_before_s"] = probe()
        ops = run_timed(runner, config["seconds"], config["mode"] == "trace")
        result["probe_after_s"] = probe()
        result["wall"] = [op["wall"] for op in ops["plain"]]
        result["cpu"] = [op["cpu"] for op in ops["plain"]]
        if ops["traced"]:
            result["per_layer"] = per_layer(ops["plain"], ops["traced"])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=runner.ops,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=(own + kids) / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
