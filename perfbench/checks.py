"""Output checks for one benchmark op.

`verify` reads the artifacts one prefnet command wrote and checks them
against the op's inputs, against each other and against independent
recomputations (degree histograms, path counts, PaR from the trace, the
Jensen-Shannon divergence). It returns a list of problems; an op passes
only when the list is empty. `scan_tree` gives the sha256 of every
artifact, which the runner compares with the golden digests and across
ops.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

from workloads import Workload

MANIFEST = "manifest.json"
CLUSTERING_BINS = 20


class CheckFailed(Exception):
    """An artifact contradicts the inputs or another artifact."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Whole-tree views


def scan_tree(out: Path) -> tuple[dict[str, str], int, int]:
    """The sha256 of every file under `out` by relative path, the number
    of files, and their bytes. The manifest is counted as a file but left
    out of the digests and bytes: its recorded runtimes differ from run to
    run."""
    digests, files, size = {}, 0, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        files += 1
        rel = path.relative_to(out).as_posix()
        if rel != MANIFEST:
            data = path.read_bytes()
            digests[rel] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, files, size


def combined_digest(digests: dict[str, str]) -> str:
    text = "\n".join(f"{rel} {digest}" for rel, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Readers


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path.name}: empty")
    return rows[0], rows[1:]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_scenario(path: Path) -> dict[str, str]:
    """The `key = value` lines of a scenario file."""
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        _require(bool(sep), f"{path.name}: malformed line {line!r}")
        fields[key.strip()] = value.strip()
    return fields


def _pattern(path: Path, kind: str, total: int) -> dict[int, int]:
    """A pattern CSV as {support: count}, where count = mass * total must
    be a whole number and the counts must add up to total."""
    header, rows = _read_csv(path)
    _require(header == [kind, "mass"], f"{path.name}: header {header}")
    counts = {}
    previous = None
    for row in rows:
        support, mass = int(row[0]), float(row[1])
        _require(previous is None or support > previous, f"{path.name}: support not increasing")
        previous = support
        scaled = mass * total
        _require(
            mass >= 0 and abs(scaled - round(scaled)) < 1e-6,
            f"{path.name}: mass {mass} at {support} is not a count over {total}",
        )
        counts[support] = round(scaled)
    _require(sum(counts.values()) == total, f"{path.name}: counts add up to {sum(counts.values())}")
    return counts


def _masses(path: Path, kind: str) -> dict[int, float]:
    header, rows = _read_csv(path)
    _require(header == [kind, "mass"], f"{path.name}: header {header}")
    return {int(s): float(m) for s, m in rows}


def js_divergence(p: dict[int, float], q: dict[int, float]) -> float:
    """Jensen-Shannon divergence in base 2 of two {support: mass} maps."""
    total = 0.0
    for key in set(p) | set(q):
        a, b = p.get(key, 0.0), q.get(key, 0.0)
        m = 0.5 * (a + b)
        if a > 0:
            total += 0.5 * a * math.log2(a / m)
        if b > 0:
            total += 0.5 * b * math.log2(b / m)
    return max(0.0, min(1.0, total))


def encounters(seed: int, node_count: int, rate: float) -> int:
    """Pairs that meet: one uniform per pair from the replicate-0
    encounter stream, as prefnet's growth documents."""
    from prefnet.scenario import RngPolicy

    pairs = node_count * (node_count - 1) // 2
    draws = RngPolicy(seed).stream("encounter", 0).random(pairs)
    return int((draws < rate).sum())


# ---------------------------------------------------------------------------
# One grown network with its patterns


def _check_scenario(fields: dict[str, str], w: Workload, seed: int, where: str) -> None:
    for key in ("node_count", "edge_budget"):
        wanted = getattr(w, key)
        _require(int(fields[key]) == wanted, f"{where}: {key} {fields[key]} != {wanted}")
    _require(int(fields["master_seed"]) == seed, f"{where}: master_seed {fields['master_seed']} != {seed}")


def check_network(d: Path, fields: dict[str, str], where: str) -> list[int]:
    """Check the generate artifacts in `d`; return the node degrees."""
    n = int(fields["node_count"])
    budget = int(fields["edge_budget"])

    degrees = [0] * n
    edges = 0
    last = (-1, -1)
    with open(d / "network.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        _require(next(rows, None) == ["i", "j", "gamma"], f"{where}/network.csv: header")
        for row in rows:
            i, j = int(row[0]), int(row[1])
            _require(0 <= i < j < n, f"{where}/network.csv: row {i},{j} is not i<j within n")
            _require((i, j) > last, f"{where}/network.csv: rows not sorted at {i},{j}")
            _require(math.isfinite(float(row[2])), f"{where}/network.csv: gamma {row[2]}")
            last = (i, j)
            degrees[i] += 1
            degrees[j] += 1
            edges += 1
    met = encounters(int(fields["master_seed"]), n, float(fields["encounter_rate"]))
    _require(edges == min(budget, met), f"{where}: {edges} edges, expected min({budget}, {met})")

    meta = _read_json(d / "network_meta.json")
    _require(
        (meta["node_count"], meta["edge_count"]) == (n, edges),
        f"{where}/network_meta.json: node/edge count",
    )
    _require(meta["provenance"]["shortfall"] == (met < budget), f"{where}: shortfall flag")

    header, rows = _read_csv(d / "population.csv")
    _require(header == ["node_id", "age", "group"] and len(rows) == n, f"{where}/population.csv")
    groups = [0] * 9
    for v, row in enumerate(rows):
        node, age, group = (int(x) for x in row)
        _require(node == v and 0 <= age < 90 and group == age // 10, f"{where}/population.csv: row {v}")
        groups[group] += 1
    _require(_read_json(d / "group_counts.json")["counts"] == groups, f"{where}/group_counts.json")

    histogram = [0] * n
    for k in degrees:
        histogram[k] += 1
    degree_counts = _pattern(d / "degree_distribution.csv", "degree", n)
    _require(list(degree_counts) == list(range(n)), f"{where}/degree_distribution.csv: support")
    _require(list(degree_counts.values()) == histogram, f"{where}/degree_distribution.csv: counts")
    _require(
        sum(k * c for k, c in degree_counts.items()) == 2 * edges,
        f"{where}/degree_distribution.csv: degree sum != 2E",
    )

    clustering = _pattern(d / "clustering_distribution.csv", "clustering", n)
    _require(
        list(clustering) == list(range(CLUSTERING_BINS)), f"{where}/clustering_distribution.csv"
    )
    _require(
        clustering[0] >= sum(1 for k in degrees if k < 2),
        f"{where}/clustering_distribution.csv: nodes of degree < 2 outside bin 0",
    )

    pairs = n * (n - 1) // 2
    paths = _pattern(d / "path_length_distribution.csv", "path_length", pairs)
    if pairs:
        _require(paths.get(1, 0) == edges, f"{where}/path_length_distribution.csv: length-1 pairs != E")
        _require(min(paths) >= 1 and max(paths) <= n, f"{where}/path_length_distribution.csv: support")

    s = _read_json(d / "summary.json")
    _require((s["node_count"], s["edge_count"]) == (n, edges), f"{where}/summary.json: counts")
    _require(
        s["unconnected_count"] == degrees.count(0) and s["connected_count"] == n - degrees.count(0),
        f"{where}/summary.json: unconnected_count",
    )
    _require(
        (s["degree_max"], s["degree_min"]) == (max(degrees), min(degrees))
        and _close(s["degree_avg"], 2 * edges / n)
        and _close(s["degree_std"], statistics.pstdev(degrees)),
        f"{where}/summary.json: degree statistics",
    )
    if pairs:
        lengths = [k for k, c in paths.items() if c]
        mean = sum(k * c for k, c in paths.items()) / pairs
        var = sum(c * (k - mean) ** 2 for k, c in paths.items()) / pairs
        _require(
            s["fake_paths"] == paths.get(n, 0)
            and (s["path_max"], s["path_min"]) == (max(lengths), min(lengths))
            and _close(s["path_avg"], mean)
            and _close(s["path_std"], math.sqrt(var)),
            f"{where}/summary.json: path statistics disagree with path_length_distribution.csv",
        )
    used = [b for b, c in clustering.items() if c]
    lo, hi = s["clustering_min"], s["clustering_max"]
    _require(
        min(used) / CLUSTERING_BINS - 1e-9 <= lo <= (min(used) + 1) / CLUSTERING_BINS + 1e-9
        and max(used) / CLUSTERING_BINS - 1e-9 <= hi <= (max(used) + 1) / CLUSTERING_BINS + 1e-9
        and lo - 1e-12 <= s["clustering_avg"] <= hi + 1e-12,
        f"{where}/summary.json: clustering statistics disagree with clustering_distribution.csv",
    )
    return degrees


# ---------------------------------------------------------------------------
# One SI run


def check_epidemic(d: Path, fields: dict[str, str], degrees: list[int], where: str) -> dict:
    """Check trace.csv, infection_by_distance.csv and risk.json in `d`
    against each other and the network's degrees; return risk.json."""
    n = len(degrees)
    horizon, cap = int(fields["horizon"]), int(fields["distance_cap"])
    seed_count = int(fields["seed_count"])

    header, rows = _read_csv(d / "trace.csv")
    _require(header == ["node_id", "is_seed", "distance", "infection_time"], f"{where}/trace.csv: header")
    _require(len(rows) == n, f"{where}/trace.csv: {len(rows)} rows for {n} nodes")
    seeds, dist, time = [], [], []
    for v, row in enumerate(rows):
        node, is_seed, distance, t = (int(x) for x in row)
        _require(node == v, f"{where}/trace.csv: node ids")
        if is_seed:
            seeds.append(v)
            _require(distance == 0 and t == 0, f"{where}/trace.csv: seed {v}")
        else:
            _require(1 <= distance <= n, f"{where}/trace.csv: distance of node {v}")
        if t >= 0:
            _require(t <= horizon and distance <= min(t, cap), f"{where}/trace.csv: node {v} infected out of reach")
        else:
            _require(t == -1, f"{where}/trace.csv: infection time of node {v}")
        dist.append(distance)
        time.append(t)
    by_degree = sorted(range(n), key=lambda v: (-degrees[v], v))
    _require(seeds == sorted(by_degree[:seed_count]), f"{where}/trace.csv: seeds {seeds} are not the top-degree nodes")

    table = [
        [sum(1 for v in range(n) if dist[v] == k and 0 <= time[v] <= t) for k in range(cap + 1)]
        for t in range(horizon + 1)
    ]
    header, rows = _read_csv(d / "infection_by_distance.csv")
    _require(header == ["t"] + [f"d{k}" for k in range(cap + 1)], f"{where}/infection_by_distance.csv: header")
    _require(
        [[int(x) for x in row] for row in rows] == [[t] + r for t, r in enumerate(table)],
        f"{where}/infection_by_distance.csv disagrees with trace.csv",
    )

    risk = _read_json(d / "risk.json")
    infected = sum(1 for t in time if t >= 0)
    _require(
        risk["seeds"] == seeds
        and risk["seed_degrees"] == [degrees[v] for v in seeds]
        and (risk["horizon"], risk["distance_cap"]) == (horizon, cap)
        and risk["infected_total"] == infected
        and risk["infection_by_distance"] == table,
        f"{where}/risk.json disagrees with trace.csv",
    )
    par = risk["par"]
    _require(len(par) == horizon + 1, f"{where}/risk.json: par rows")
    for t, row in enumerate(par):
        _require(len(row) == cap + 1, f"{where}/risk.json: par columns")
        for k, value in enumerate(row):
            if k > t:
                _require(value is None, f"{where}/risk.json: par[{t}][{k}] beyond d <= t")
                continue
            hit = sum(1 for v in range(n) if 0 <= time[v] <= t and dist[v] <= k)
            _require(_close(value, hit / n), f"{where}/risk.json: par[{t}][{k}] != trace")
            _require(k == 0 or value >= row[k - 1], f"{where}/risk.json: par decreases in d at t={t}")
            _require(t == 0 or k > t - 1 or value >= par[t - 1][k], f"{where}/risk.json: par decreases in t at d={k}")
    last = min(horizon, cap)
    _require(risk["final_share"] == par[horizon][last], f"{where}/risk.json: final_share")
    return risk


# ---------------------------------------------------------------------------
# Commands


def _check_target(path: Path, target: tuple[int, int]) -> dict[int, float]:
    """The scale-free target pattern: n nodes and exactly m * (n - m) edges."""
    n, m = target
    counts = _pattern(path, "degree", n)
    _require(list(counts) == list(range(n)), f"{path.name}: support")
    _require(
        sum(k * c for k, c in counts.items()) == 2 * m * (n - m),
        f"{path.name}: degree sum is not 2 m (n - m)",
    )
    return _masses(path, "degree")


def _check_manifest(out: Path, w: Workload, seed: int) -> None:
    manifest = _read_json(out / MANIFEST)
    files = sorted(
        p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file() and p.name != MANIFEST
    )
    _require(manifest["outputs"] == files, "manifest.json: outputs differ from the files written")
    _require(
        manifest["command"] == w.command and manifest["master_seed"] == seed,
        "manifest.json: command or master_seed",
    )


def _check_single(out: Path, w: Workload, seed: int) -> None:
    fields = read_scenario(out / "scenario.txt")
    _check_scenario(fields, w, seed, ".")
    degrees = check_network(out, fields, ".")
    if w.command == "epidemic":
        check_epidemic(out, fields, degrees, ".")


def _check_sweep(out: Path, w: Workload, seed: int) -> None:
    _check_scenario(read_scenario(out / "scenario.txt"), w, seed, ".")
    target = _check_target(out / "target_degree_distribution.csv", w.target)
    aggregate = _read_json(out / "aggregate.json")
    n, m = w.target
    _require(aggregate["target"] == f"ba:{n},{m}", f"aggregate.json: target {aggregate['target']}")
    taus = aggregate["taus"]
    _require(len(taus) == w.taus, f"aggregate.json: {len(taus)} taus")
    cells = aggregate["cells"]
    _require(len(cells) == w.cells, f"aggregate.json: {len(cells)} cells")

    header, js_rows = _read_csv(out / "js_table.csv")
    _require(header == ["cell", "shape", "rule", "js", "unconnected", "clustering_avg"], "js_table.csv: header")
    header, par_rows = _read_csv(out / "par_table.csv")
    _require(len(js_rows) == len(cells) and len(par_rows) == len(cells) * len(taus), "table row counts")
    par_rows = iter(par_rows)
    for cell, js_row in zip(cells, js_rows):
        name = cell["name"]
        where = f"cells/{name}"
        d = out / "cells" / name
        fields = read_scenario(d / "scenario.txt")
        _check_scenario(fields, w, seed, where)
        _require(
            [fields["age_shape"], fields["rule"]] == [cell["shape"], cell["rule"]] == js_row[1:3]
            and js_row[0] == name,
            f"{where}: shape/rule",
        )
        degrees = check_network(d, fields, where)
        js = js_divergence(_masses(d / "degree_distribution.csv", "degree"), target)
        summary = _read_json(d / "summary.json")
        _require(
            _close(cell["js"], js) and float(js_row[3]) == cell["js"],
            f"{where}: js {cell['js']} != recomputed {js}",
        )
        _require(
            int(js_row[4]) == cell["unconnected"] == summary["unconnected_count"]
            and float(js_row[5]) == cell["clustering_avg"] == summary["clustering_avg"],
            f"{where}: js_table/aggregate disagree with summary.json",
        )
        _require([row["tau"] for row in cell["par"]] == taus, f"{where}: taus")
        for tau, row in zip(taus, cell["par"]):
            risk = check_epidemic(d / f"tau_{tau!r}", fields, degrees, f"{where}/tau_{tau!r}")
            diagonal = [risk["par"][k][k] for k in range(1, min(risk["horizon"], risk["distance_cap"]) + 1)]
            table_row = next(par_rows)
            _require(
                row["infected_total"] == risk["infected_total"]
                and row["final_share"] == risk["final_share"]
                and row["par_diagonal"] == diagonal
                and table_row[:3] == js_row[:3]
                and float(table_row[3]) == tau
                and int(table_row[4]) == risk["infected_total"]
                and float(table_row[5]) == risk["final_share"]
                and [float(x) for x in table_row[6:]] == diagonal,
                f"{where}/tau_{tau!r}: par_table/aggregate disagree with risk.json",
            )


def _check_optimize(out: Path, w: Workload, seed: int) -> None:
    _check_scenario(read_scenario(out / "scenario.txt"), w, seed, ".")
    _check_target(out / "target_degree_distribution.csv", w.target)
    best = _read_json(out / "best.json")
    evaluations, r = best["evaluations"], w.replicates
    _require(1 <= evaluations <= w.eval_budget, f"best.json: {evaluations} evaluations")
    _require(best["replicates"] == r, "best.json: replicates")

    header, rows = _read_csv(out / "eval_log.csv")
    _require(
        header == ["level", "level_weight", "difference", "difference_weight", "replicate", "js"],
        "eval_log.csv: header",
    )
    _require(len(rows) == r * evaluations, f"eval_log.csv: {len(rows)} rows for {evaluations} evaluations")
    means = {}
    for start in range(0, len(rows), r):
        group = rows[start : start + r]
        key = tuple(group[0][:4])
        _require(
            all(row[:4] == list(key) for row in group)
            and [int(row[4]) for row in group] == list(range(r)),
            f"eval_log.csv: rows {start}..{start + r - 1} are not one candidate's replicates",
        )
        _require(key not in means, f"eval_log.csv: candidate {key} evaluated twice")
        js = [float(row[5]) for row in group]
        _require(all(0.0 <= v <= 1.0 for v in js), f"eval_log.csv: js outside [0, 1] for {key}")
        means[key] = (sum(js) / r, js)

    pref = best["best"]
    key = (str(pref["level"]), repr(pref["level_weight"]), str(pref["difference"]), repr(pref["difference_weight"]))
    _require(key in means, f"best.json: {key} was never evaluated")
    mean, js = means[key]
    _require(
        _close(best["objective"], mean) and _close(best["objective_std"], statistics.pstdev(js)),
        "best.json: objective disagrees with eval_log.csv",
    )
    _require(
        all(best["objective"] <= other + 1e-12 for other, _ in means.values()),
        "best.json: a logged candidate has a lower objective",
    )
    fitted = read_scenario(out / "fitted.scenario")
    _require(
        fitted["rule"] == "PH" and fitted["preference"] == " ".join(key),
        "fitted.scenario disagrees with best.json",
    )


_CHECKS = {
    "generate": _check_single,
    "epidemic": _check_single,
    "sweep": _check_sweep,
    "optimize": _check_optimize,
}


def verify(out: Path, w: Workload, seed: int) -> list[str]:
    """Problems found in the artifacts that one op of workload `w` wrote
    with master seed `seed`; [] means the op passed."""
    try:
        _check_manifest(out, w, seed)
        _CHECKS[w.command](out, w, seed)
    except CheckFailed as err:
        return [str(err)]
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as err:
        return [f"unreadable artifact: {type(err).__name__}: {err}"]
    return []
