"""Reference checks for benchmark outputs, independent of scenkit.

Nothing here imports scenkit. Parameters and ranges come from the catalog
JSON and the benchmark's own `Model` of each scenario; constraints come from
the catalog's `follows` rule, ``B.s0 > A.s0`` for ``A follows B``. Levels,
feasible pairs and the pairwise lower bound are enumerated here, one
constraint component at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations, product
from pathlib import Path

from workloads import Model


def parameters(model: Model, catalog: dict) -> dict[str, tuple[float, float]]:
    """Qualified parameter name -> (lo, hi), as the catalog lowers ``model``."""
    ranges = {}

    def add(instance, templates):
        for template in templates:
            lo, hi = template["range"]
            ranges[f"{instance}.{template['name']}"] = (float(lo), float(hi))

    add(model.road, catalog["entities"]["road"])
    add(model.road, catalog["attributes"]["geometry"][model.geometry].get("add", []))
    for instance, kind in model.vehicles:
        add(instance, catalog["entities"][kind])
    return ranges


def constraints(model: Model) -> list[tuple[str, str]]:
    """(greater, smaller) name pairs: ``A follows B`` requires B.s0 > A.s0."""
    return [(f"{b}.s0", f"{a}.s0") for a, b in model.follows]


def pairwise_levels(lo: float, hi: float, k: int) -> list[float]:
    """Both bounds plus the midpoints of k equal-width classes."""
    if lo == hi:
        return [lo]
    width = (hi - lo) / k
    return sorted({lo, hi} | {lo + width * (i + 0.5) for i in range(k)})


def boundary_levels(lo: float, hi: float) -> list[float]:
    return [lo] if lo == hi else [lo, hi]


def level_rows(levels: dict[str, list[float]]) -> int:
    """Rows in the full level product."""
    return math.prod(len(values) for values in levels.values())


def _components(names, relations) -> list[list[str]]:
    parent = {name: name for name in names}

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    for greater, smaller in relations:
        parent[find(greater)] = find(smaller)
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)
    return list(groups.values())


def feasible_pairs(levels: dict[str, list[float]],
                   relations: list[tuple[str, str]]) -> dict[tuple[str, str], set]:
    """For each parameter pair (p, q), p < q, the level-index pairs (i, j)
    that some constraint-satisfying row contains."""
    names = sorted(levels)
    component_rows = {}  # component -> feasible index tuples
    home = {}
    for component in _components(names, relations):
        inside = [(g, s) for g, s in relations if g in component]
        rows = [row for row in product(*(range(len(levels[n])) for n in component))
                if all(levels[g][row[component.index(g)]] > levels[s][row[component.index(s)]]
                       for g, s in inside)]
        if not rows:
            return {pair: set() for pair in combinations(names, 2)}
        for position, name in enumerate(component):
            home[name] = (tuple(component), position)
        component_rows[tuple(component)] = rows

    pairs = {}
    for p, q in combinations(names, 2):
        (cp, ip), (cq, iq) = home[p], home[q]
        if cp == cq:
            pairs[p, q] = {(row[ip], row[iq]) for row in component_rows[cp]}
        else:
            pairs[p, q] = set(product({row[ip] for row in component_rows[cp]},
                                      {row[iq] for row in component_rows[cq]}))
    return pairs


def lower_bound(pairs: dict) -> int:
    """Any pairwise suite needs at least the largest feasible pair count."""
    return max((len(found) for found in pairs.values()), default=1)


def _level_index(values: list[float], value: float) -> int | None:
    for index, level in enumerate(values):
        if math.isclose(level, value, rel_tol=1e-12, abs_tol=1e-12):
            return index
    return None


def check_rows(rows: list[dict], ranges: dict, relations: list[tuple[str, str]]) -> list[str]:
    """Every row assigns exactly the expected parameters, in range, and
    satisfies every constraint."""
    problems = []
    for number, row in enumerate(rows):
        if set(row) != set(ranges):
            problems.append(f"row {number}: parameters {sorted(row)} != {sorted(ranges)}")
            continue
        for name, value in row.items():
            lo, hi = ranges[name]
            if not lo <= value <= hi:
                problems.append(f"row {number}: {name} = {value!r} outside [{lo}, {hi}]")
        for greater, smaller in relations:
            if not row[greater] > row[smaller]:
                problems.append(f"row {number}: {greater} > {smaller} violated")
    return problems


def missing_pairs(rows: list[dict], levels: dict, pairs: dict) -> list[str]:
    """Feasible level pairs that no row covers (rows must use level values)."""
    covered = {pair: set() for pair in pairs}
    problems = []
    for number, row in enumerate(rows):
        index = {}
        for name, values in levels.items():
            index[name] = _level_index(values, row.get(name, math.nan))
            if index[name] is None:
                problems.append(f"row {number}: {name} = {row.get(name)!r} is not a level")
        for p, q in pairs:
            covered[p, q].add((index[p], index[q]))
    for pair, wanted in pairs.items():
        for i, j in sorted(wanted - covered[pair]):
            problems.append(f"pair {pair[0]}={levels[pair[0]][i]!r}, "
                            f"{pair[1]}={levels[pair[1]][j]!r} not covered")
    return problems


def check_manifest(cases: Path) -> tuple[list[str], int]:
    """Manifest hashes match the files, and the case files match its count."""
    manifest = json.loads((cases / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    listed = set()
    for entry in manifest["cases"]:
        path = cases / entry["file"]
        listed.add(entry["file"])
        if not path.is_file():
            problems.append(f"{path.name}: listed in the manifest but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != entry["hash"]:
            problems.append(f"{path.name}: hash differs from the manifest")
    on_disk = {p.name for p in cases.glob("*.json")} - {"manifest.json"}
    if len(on_disk) != manifest["case_count"] or on_disk != listed:
        problems.append(f"{len(on_disk)} case files, manifest case_count "
                        f"{manifest['case_count']}, {len(listed)} listed")
    return problems, manifest["case_count"]


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and sha256 of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(root).as_posix()}\0"
                      f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def check_operation(operation, out: Path, catalog: dict) -> tuple[list[str], dict]:
    """Check one operation's output tree; returns (problems, facts).

    Facts are the suite size, the files and bytes under the case directory
    and, for the levels the suite's coverage is measured on, the
    level-product row count and the pairwise lower bound.
    """
    model = operation.model
    sid = model.scenario_id
    base = out / operation.name
    ranges = parameters(model, catalog)
    relations = constraints(model)
    if operation.method == "pairwise":
        levels = {n: pairwise_levels(lo, hi, operation.k) for n, (lo, hi) in ranges.items()}
    else:
        levels = {n: boundary_levels(lo, hi) for n, (lo, hi) in ranges.items()}
    pairs = feasible_pairs(levels, relations)

    problems = []
    logical = base / "logical" / f"{sid}.logical.json"
    if operation.golden is not None and logical.read_bytes() != operation.golden.read_bytes():
        problems.append(f"{logical.name} differs from golden/{operation.golden.name}")
    suite = json.loads((base / "concrete" / f"{sid}.suite.json").read_text(encoding="utf-8"))
    rows = [scenario["assignments"] for scenario in suite["scenarios"]]
    problems += check_rows(rows, ranges, relations)
    if operation.method == "pairwise":
        problems += missing_pairs(rows, levels, pairs)
    elif len(rows) != operation.n:
        problems.append(f"{len(rows)} random scenarios, asked for {operation.n}")
    manifest_problems, case_count = check_manifest(base / "cases" / sid)
    problems += manifest_problems
    if case_count != len(rows):
        problems.append(f"{case_count} test cases for {len(rows)} concrete scenarios")
    case_files = [p for p in (base / "cases" / sid).iterdir() if p.is_file()]
    facts = {"suite_size": len(rows), "level_rows": level_rows(levels),
             "lower_bound": lower_bound(pairs), "case_files": len(case_files),
             "case_bytes": sum(p.stat().st_size for p in case_files)}
    return [f"{operation.name}: {p}" for p in problems], facts
