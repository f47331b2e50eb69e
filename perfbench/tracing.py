"""Spans around prefnet's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a timing wrapper in
every prefnet module that holds it (the defining module and the modules
that imported the name, such as `cli` and `optimizer`), and `uninstall`
puts the originals back. The sweep's process pool is traced as one span,
`cli.pool_map`, from the pool's creation until its shutdown has joined
the workers; functions that run inside pool workers are not seen.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs whose calls and inclusive time are recorded.
TRACED = (
    ("features", "make_population"),
    ("netgen", "generate_network"),
    ("netgen", "save_network"),
    ("netgen", "ba_target"),
    ("netmetrics", "summarize"),
    ("netmetrics", "clustering_distribution"),
    ("netmetrics", "shortest_path_lengths"),
    ("netmetrics", "degree_distribution"),
    ("netmetrics", "js_divergence"),
    ("netmetrics", "distribution_to_csv"),
    ("epidemic", "run_si"),
    ("epidemic", "risk_report"),
    ("epidemic", "trace_to_csv"),
    ("optimizer", "evaluate"),
)
POOL = "cli.pool_map"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (POOL,)

# The O(n^3) passes over one network: clustering (triangle counts) and
# all-pairs shortest paths. Counted per distinct network they run on.
PASSES = {
    ("netmetrics", "clustering_values"): "clustering",
    ("netmetrics", "shortest_path_matrix"): "path",
}


class Tracer:
    """Calls, inclusive seconds and top-level seconds of traced spans."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.top_seconds = 0.0
        self.passes: Counter = Counter()
        self._networks: dict[int, object] = {}
        self._depth = 0

    @property
    def networks(self) -> int:
        """Distinct networks that had a clustering or path pass."""
        return len(self._networks)

    def _span(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        self.calls[name] += 1
        self.seconds[name] += elapsed
        if self._depth == 0:
            self.top_seconds += elapsed

    def _wrap(self, name: str, fn, pass_kind: str | None):
        tracer = self

        def traced(*args, **kwargs):
            if pass_kind is not None:
                tracer.passes[pass_kind] += 1
                net = args[0] if args else kwargs.get("net")
                tracer._networks[id(net)] = net  # kept alive so ids stay unique
            tracer._depth += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._depth -= 1
                tracer._span(name, started)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _replace_everywhere(self, module_name: str, attr: str, make) -> None:
        home = sys.modules.get(f"prefnet.{module_name}")
        original = getattr(home, attr, None)
        if original is None:
            return  # not in this version of prefnet: reported as 0 calls
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "prefnet" or name.startswith("prefnet.")) and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)
                        self._patched.append((module, key, original))

    def install(self) -> None:
        for module_name, attr in TRACED:
            self._replace_everywhere(
                module_name, attr, lambda fn, n=f"{module_name}.{attr}": self._wrap(n, fn, None)
            )
        for (module_name, attr), kind in PASSES.items():
            self._replace_everywhere(
                module_name, attr, lambda fn, n=f"{module_name}.{attr}", k=kind: self._wrap(n, fn, k)
            )
        self._replace_everywhere("cli", "ProcessPoolExecutor", self._traced_pool)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _traced_pool(self, pool_class):
        tracer = self

        class TracedPool(pool_class):
            def __init__(self, *args, **kwargs):
                self._span_started = time.perf_counter()
                tracer._depth += 1
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span_started is not None:
                        tracer._depth -= 1
                        tracer._span(POOL, self._span_started)
                        self._span_started = None

        return TracedPool
