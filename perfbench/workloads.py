"""The benchmark's workloads: which prefnet command each op runs, and why.

Every op is one in-process `prefnet.cli.main(argv)` call. The argv is
built here from the workload and the master seed and nothing else, so the
same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# The paper's network: 90 nodes and a 1400-edge budget, 1400 / C(90, 2)
# = 0.3496 of all pairs. The large network keeps that density at 1000
# nodes: round(0.3496 * C(1000, 2)) = 174607 edges.
PAPER_NODES = 90
PAPER_EDGES = 1400
LARGE_NODES = 1000
LARGE_EDGES = 174607

# Default degree target of `sweep` and `optimize` at the paper size: the
# scale-free network whose m * (n - m) edge total is nearest the budget.
PAPER_TARGET = (90, 20)

# A default sweep crosses 5 age shapes with 5 rules and runs 5 taus per cell.
SWEEP_CELLS = 25
SWEEP_TAUS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    options: tuple[str, ...]
    node_count: int
    edge_budget: int
    jobs: int = 1
    target: tuple[int, int] | None = None
    # Workload whose artifacts this one must reproduce byte for byte.
    same_outputs_as: str | None = None
    # Cells and taus per op, for `sweep` workloads.
    cells: int | None = None
    taus: int | None = None
    # Optimizer settings, for `optimize` workloads.
    eval_budget: int | None = None
    replicates: int | None = None
    # Fields that differ in the untimed warm-up op, when a full op would
    # take several seconds; a smaller op warms the same code paths.
    warmup_changes: tuple[tuple[str, int], ...] = ()

    def warmup(self) -> "Workload":
        return replace(self, warmup_changes=(), **dict(self.warmup_changes))

    def argv(self, seed: int, out) -> list[str]:
        opts = list(self.options)
        if self.eval_budget is not None:
            opts += ["--budget", str(self.eval_budget), "--replicates", str(self.replicates)]
        if self.node_count != PAPER_NODES:
            opts += ["--set", f"node_count={self.node_count}"]
        if self.edge_budget != PAPER_EDGES:
            opts += ["--set", f"edge_budget={self.edge_budget}"]
        return [self.command, *opts, "--set", f"master_seed={seed}", "--out", str(out)]

    @property
    def golden_key(self) -> str:
        return self.same_outputs_as or self.name


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep_paper",
            why="the paper's figure workflow: 25 cells x 5 taus at n=90, so epidemic "
            "and many small file writes carry weight",
            command="sweep",
            options=("--jobs", "1"),
            node_count=PAPER_NODES,
            edge_budget=PAPER_EDGES,
            target=PAPER_TARGET,
            cells=SWEEP_CELLS,
            taus=SWEEP_TAUS,
        ),
        Workload(
            name="sweep_paper_jobs2",
            why="the same sweep with --jobs 2, the only workload that runs the cli "
            "process pool; its outputs must equal sweep_paper's",
            command="sweep",
            options=("--jobs", "2"),
            node_count=PAPER_NODES,
            edge_budget=PAPER_EDGES,
            jobs=2,
            target=PAPER_TARGET,
            cells=SWEEP_CELLS,
            taus=SWEEP_TAUS,
            same_outputs_as="sweep_paper",
        ),
        Workload(
            name="fit_paper",
            why="optimize 700x5 against ba:90,20: thousands of networks grown, "
            "clustering, paths, epidemic and file writes bypassed",
            command="optimize",
            options=(),
            node_count=PAPER_NODES,
            edge_budget=PAPER_EDGES,
            target=PAPER_TARGET,
            eval_budget=700,
            replicates=5,
            warmup_changes=(("eval_budget", 50),),
        ),
        Workload(
            name="analyze_large",
            why="one epidemic run at n=1000 with the paper's edge density, where the "
            "O(n^3) netmetrics passes dominate",
            command="epidemic",
            options=(),
            node_count=LARGE_NODES,
            edge_budget=LARGE_EDGES,
            warmup_changes=(("node_count", PAPER_NODES), ("edge_budget", PAPER_EDGES)),
        ),
    )
}
