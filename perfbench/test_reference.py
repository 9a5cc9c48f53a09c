"""Tests of the benchmark's own reference checker.

    python3 -m pytest perfbench/test_reference.py
"""

import json
from pathlib import Path

import reference
from workloads import GOLDEN_LOGICAL, WORKED_MODEL, Model

ROOT = Path(__file__).resolve().parent.parent


def test_three_cubed_needs_nine_rows():
    levels = {name: [0.0, 1.0, 2.0] for name in ("a", "b", "c")}
    pairs = reference.feasible_pairs(levels, [])
    assert reference.level_rows(levels) == 27
    assert reference.lower_bound(pairs) == 9
    latin = [{"a": float(i), "b": float(j), "c": float((i + j) % 3)}
             for i in range(3) for j in range(3)]
    assert reference.missing_pairs(latin, levels, pairs) == []
    assert len(reference.missing_pairs(latin[1:], levels, pairs)) == 3


CATALOG = {
    "entities": {"road": [{"name": "w", "range": [3, 4]}],
                 "car": [{"name": "s0", "range": [0, 200]}],
                 "truck": [{"name": "s0", "range": [0, 200]}]},
    "attributes": {"geometry": {"straight": {}}},
}
FOLLOWS = Model(scenario_id="x", road="r", geometry="straight",
                vehicles=(("a", "car"), ("b", "truck")), follows=(("a", "b"),))


def test_follows_pair_by_hand():
    ranges = reference.parameters(FOLLOWS, CATALOG)
    relations = reference.constraints(FOLLOWS)
    assert ranges == {"r.w": (3.0, 4.0), "a.s0": (0.0, 200.0), "b.s0": (0.0, 200.0)}
    assert relations == [("b.s0", "a.s0")]
    levels = {n: reference.pairwise_levels(lo, hi, 1) for n, (lo, hi) in ranges.items()}
    assert levels["a.s0"] == [0.0, 100.0, 200.0]
    pairs = reference.feasible_pairs(levels, relations)
    # a behind b: (0, 100), (0, 200), (100, 200); a = 200 and b = 0 never occur
    assert pairs["a.s0", "b.s0"] == {(0, 1), (0, 2), (1, 2)}
    assert pairs["a.s0", "r.w"] == {(i, j) for i in (0, 1) for j in range(3)}
    assert pairs["b.s0", "r.w"] == {(i, j) for i in (1, 2) for j in range(3)}
    assert reference.lower_bound(pairs) == 6
    # a = 100 forces b = 200, b = 100 forces a = 0, and (0, 200) needs a row
    # of its own, so the smallest cover has 7 rows, one above the bound
    suite = [{"a.s0": a, "b.s0": b, "r.w": w}
             for a, b in ((100.0, 200.0), (0.0, 100.0)) for w in (3.0, 3.5, 4.0)]
    suite.append({"a.s0": 0.0, "b.s0": 200.0, "r.w": 3.0})
    assert reference.check_rows(suite, ranges, relations) == []
    assert reference.missing_pairs(suite, levels, pairs) == []
    assert reference.missing_pairs(suite[:-1], levels, pairs) == [
        "pair a.s0=0.0, b.s0=200.0 not covered"]


def test_rows_out_of_range_or_violating_are_reported():
    ranges = reference.parameters(FOLLOWS, CATALOG)
    relations = reference.constraints(FOLLOWS)
    problems = reference.check_rows([{"a.s0": 150.0, "b.s0": 100.0, "r.w": 5.0}],
                                    ranges, relations)
    assert problems == ["row 0: r.w = 5.0 outside [3.0, 4.0]",
                        "row 0: b.s0 > a.s0 violated"]


def test_worked_model_matches_golden_parameters():
    catalog = json.loads((ROOT / "tests" / "data" / "catalog.json").read_text())
    golden = json.loads((ROOT / GOLDEN_LOGICAL).read_text())
    assert reference.parameters(WORKED_MODEL, catalog) == {
        p["name"]: tuple(p["range"]) for p in golden["parameters"]}
    assert [(c["lhs"], c["rhs"]) for c in golden["constraints"]] == \
        reference.constraints(WORKED_MODEL)
