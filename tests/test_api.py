"""The package's public names."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import prefnet
from prefnet import cli, epidemic, features, netgen, optimizer, scenario

# Scalar test oracles that now live in tests/oracles.py, and names deleted
# with the per-node trait arrays, with the per-window PaR counts, with the
# 90 x 90 age table, when growth became one kernel (`netgen.keep_pairs`),
# when seeding became degree alone, when spreading became one
# transmissibility for every node, when a fit's result became its winner,
# objective and log (`Candidate`), or because only tests read them (`par`:
# every PaR figure is read from `par_matrix`; `PRESET_NAMES`); none of them
# is part of the package.
REMOVED = (
    "Traits",
    "node_traits",
    "_check_lengths",
    "preferential_score",
    "homophily_score",
    "pair_score",
    "PairScore",
    "transition_probability",
    "par_exact",
    "pair_score_table",
    "budget_pairs",
    "SeedRule",
    "seed_scores",
    "par",
    "Susceptibility",
    "PRESET_NAMES",
    "Candidate",
)


def test_public_names():
    assert [name for name in prefnet.__all__ if not hasattr(prefnet, name)] == []
    assert len(set(prefnet.__all__)) == len(prefnet.__all__)
    modules = (prefnet, features, netgen, epidemic, optimizer, scenario)
    for name in REMOVED:
        assert name not in prefnet.__all__
        assert not any(hasattr(module, name) for module in modules)
    assert not hasattr(features.Population, "score_table")
    # The seed count and the default transmissibility have one home, the
    # scenario; seeds are picked by degree, and the seeds a trace reports
    # are its step-0 row
    assert list(inspect.signature(epidemic.run_si).parameters) == [
        "net", "scenario", "stream", "taus",
    ]
    assert "seeds" not in {f.name for f in fields(epidemic.EpidemicTrace)}
    assert list(inspect.signature(epidemic.select_seeds).parameters) == ["net", "count"]
    # A fit reads everything from its prepared draws, and its result keeps
    # each figure once: the evaluations and replicates are the log's
    # length and its records' length. A network is its graph alone.
    assert list(inspect.signature(optimizer.evaluate).parameters) == ["preference", "draws"]
    assert list(inspect.signature(optimizer.optimize).parameters) == [
        "draws", "budget", "progress",
    ]
    assert [f.name for f in fields(optimizer.OptimizeResult)] == [
        "best", "objective", "objective_std", "log",
    ]
    assert [f.name for f in fields(optimizer.EvalRecord)] == ["preference", "js"]
    assert [f.name for f in fields(netgen.NetworkSnapshot)] == ["node_count", "edges", "gamma"]
    namespace = {}
    exec("from prefnet import *", namespace)
    assert set(prefnet.__all__) <= set(namespace)


def test_every_public_name_is_used_outside_tests():
    # No public name exists only for the tests: each is read somewhere in
    # the package or a demo. Its own def or class statement is not a Name,
    # Attribute or import alias, and an assignment stores rather than
    # reads, so neither counts.
    package = Path(prefnet.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (Path(__file__).resolve().parents[1] / "demos").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert sorted(set(prefnet.__all__) - used) == []


def test_artifact_format_lives_in_one_module():
    # The CSV and JSON byte format is decided in artifacts.py alone.
    package = Path(prefnet.__file__).parent
    users = {
        path.name
        for path in package.glob("*.py")
        for call in ("csv.writer", "json.dump", "json.load")
        if call in path.read_text(encoding="utf-8")
    }
    assert users == {"artifacts.py"}


def test_each_random_stream_opens_in_one_module():
    # A scenario's ages are drawn in features.py alone, and its encounters
    # and jitter in netgen.py alone, so every consumer sees the same draws.
    package = Path(prefnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    openers = {
        label: {
            name
            for name, text in sources.items()
            for call in ("stream", "counter_stream")
            if f'.{call}("{label}"' in text
        }
        for label in ("feature-gen", "encounter", "noise")
    }
    assert openers == {
        "feature-gen": {"features.py"},
        "encounter": {"netgen.py"},
        "noise": {"netgen.py"},
    }
    # The preference belongs to the Scenario, and the fit's draws keep no
    # second copy of the ages.
    population = features.Population([0, 45, 89])
    assert not hasattr(population, "preference")
    assert not hasattr(population, "features")
    assert "ages" not in {f.name for f in fields(optimizer.ReplicateDraws)}


def test_growth_is_decided_in_one_module():
    # Pairs are scored and ranked in netgen.py alone, by the one kernel that
    # both generate_network and optimizer.evaluate grow through; features.py
    # keeps the score formula but not the pair layout.
    package = Path(prefnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    callers = {
        call: {
            name
            for name, text in sources.items()
            if re.search(rf"(?<!def ){re.escape(call)}", text)
        }
        for call in ("age_pair_scores(", "np.partition")
    }
    assert callers == {"age_pair_scores(": {"netgen.py"}, "np.partition": {"netgen.py"}}
    assert not hasattr(features, "age_code_slots")
    assert hasattr(netgen, "age_code_slots") and hasattr(netgen, "keep_pairs")
    assert not re.search(r"import[^\n]*\b(age_pair_scores|budget_pairs)\b",
                         sources["optimizer.py"])


def test_run_stages_are_timed_in_one_place():
    # A run's stage seconds are taken by cli._RunDir.stage alone, into the
    # run's own record; no function fills a runtimes dict it is handed.
    package = Path(prefnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    timers = [
        name for name, text in sources.items() for line in text.splitlines()
        if "perf_counter" in line
    ]
    assert timers == ["cli.py"]
    assert "perf_counter" in inspect.getsource(cli._RunDir.stage)
    takers = {
        f"{name}:{node.name}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
        and "runtimes" in {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
    }
    assert takers == set()


def test_every_import_is_used():
    # in the package (whose __init__ imports to re-export), the tests and
    # the demos
    package = Path(prefnet.__file__).parent
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(root.glob("tests/*.py")) + sorted(root.glob("demos/*.py"))
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{name}" for name in sorted(imported - used)]
    assert unused == []
