"""Augment concrete scenarios into executable test cases and export suites.

A test case carries the six mandatory fields: unique identification, work
product reference, preconditions/configuration, environmental conditions,
time-sequenced input data, and expected behavior with acceptable variations.
Input traces use constant-velocity kinematics: an instance with initial
position ``s0`` and speed ``v0`` yields position ``s(t) = s0 + v0*t``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import (
    check_document,
    check_numbers,
    check_object,
    check_records,
    content_hash,
    dumps_canonical,
    load_json,
)
from .concretize import ConcreteScenario, concrete_hash
from .errors import (
    BadTiming,
    DuplicateId,
    IncompleteField,
    MissingKinematicInputs,
    SchemaViolation,
    SourceMismatch,
    TraceMismatch,
)
from .logical import LogicalScenario


@dataclass(frozen=True)
class TimeSeries:
    parameter: str
    unit: str
    dt: float
    samples: tuple[float, ...]


@dataclass(frozen=True)
class Check:
    signal: str
    comparator: str
    bound: float
    tolerance: float


@dataclass(frozen=True)
class ExpectedBehavior:
    description: str
    checks: tuple[Check, ...] = ()


@dataclass(frozen=True)
class TestCase:
    unique_id: str
    work_product_ref: str
    preconditions: str
    configuration: str
    environmental_conditions: dict = field(default_factory=dict)
    input_data: tuple[TimeSeries, ...] = ()
    expected: ExpectedBehavior = ExpectedBehavior(description="")
    source_ref: dict = field(default_factory=dict)


def check_timing(dt: float, duration: float) -> None:
    """The one timing rule: both finite and ``0 < dt <= duration``."""
    if not (math.isfinite(dt) and math.isfinite(duration) and 0 < dt <= duration):
        raise BadTiming(f"need finite 0 < dt <= duration, got dt={dt}, duration={duration}")


def synthesize_traces(scenario: LogicalScenario, concrete: ConcreteScenario,
                      duration: float, dt: float) -> list[TimeSeries]:
    """Time series for every parameter: kinematic instances get position and
    speed signals, static parameters get constant signals."""
    check_timing(dt, duration)
    if concrete.source_ref.get("scenario_id") != scenario.scenario_id:
        raise SourceMismatch(
            f"concrete scenario references {concrete.source_ref.get('scenario_id')!r}, "
            f"not {scenario.scenario_id!r}")

    count = math.floor(duration / dt) + 1
    times = [i * dt for i in range(count)]

    by_instance: dict[str, list] = {}
    for parameter in scenario.parameters:
        instance = parameter.name.split(".", 1)[0]
        by_instance.setdefault(instance, []).append(parameter)

    traces: list[TimeSeries] = []
    for instance, parameters in by_instance.items():
        initial = {p.name.split(".", 1)[1]: p for p in parameters if p.kind == "scalar-initial"}
        if initial:
            if "s0" not in initial or "v0" not in initial:
                raise MissingKinematicInputs(
                    f"instance {instance!r} needs both s0 and v0 for trace synthesis")
            s0 = concrete.assignments[f"{instance}.s0"]
            v0 = concrete.assignments[f"{instance}.v0"]
            traces.append(TimeSeries(parameter=f"{instance}.s", unit=initial["s0"].unit,
                                     dt=dt, samples=tuple(s0 + v0 * t for t in times)))
            traces.append(TimeSeries(parameter=f"{instance}.v", unit=initial["v0"].unit,
                                     dt=dt, samples=tuple(v0 for _ in times)))
            for local, parameter in initial.items():
                if local not in ("s0", "v0"):
                    value = concrete.assignments[parameter.name]
                    traces.append(TimeSeries(parameter=parameter.name, unit=parameter.unit,
                                             dt=dt, samples=tuple(value for _ in times)))
        for parameter in parameters:
            if parameter.kind == "scalar-static":
                value = concrete.assignments[parameter.name]
                traces.append(TimeSeries(parameter=parameter.name, unit=parameter.unit,
                                         dt=dt, samples=tuple(value for _ in times)))
    return traces


def recover_assignments(concrete: ConcreteScenario, traces: list[TimeSeries]) -> dict:
    """Invert trace synthesis: read every assignment back from the t=0 samples."""
    recovered: dict[str, float] = {}
    for trace in traces:
        if trace.parameter in concrete.assignments:
            recovered[trace.parameter] = trace.samples[0]
            continue
        instance, _, local = trace.parameter.rpartition(".")
        if local == "s" and f"{instance}.s0" in concrete.assignments:
            recovered[f"{instance}.s0"] = trace.samples[0]
        elif local == "v" and f"{instance}.v0" in concrete.assignments:
            recovered[f"{instance}.v0"] = trace.samples[0]
    return recovered


def assemble_test_case(concrete: ConcreteScenario, traces: list[TimeSeries],
                       meta: dict, expected: ExpectedBehavior) -> TestCase:
    """Build a test case; the unique id is a content hash, so identical inputs
    always produce the identical id."""
    work_product_ref = meta.get("work_product_ref", "")
    preconditions = meta.get("preconditions", "")
    configuration = meta.get("configuration", "")
    if not work_product_ref:
        raise IncompleteField("work_product_ref")
    if not preconditions:
        raise IncompleteField("preconditions")
    if not configuration:
        raise IncompleteField("configuration")
    if not expected.description:
        raise IncompleteField("expected_behavior")
    if not traces:
        raise IncompleteField("input_data")

    recovered = recover_assignments(concrete, traces)
    for name, value in recovered.items():
        if concrete.assignments.get(name) != value:
            raise TraceMismatch(
                f"trace for {name!r} starts at {value!r}, assignment is "
                f"{concrete.assignments.get(name)!r}")

    environmental = {t.parameter: t.samples[0] for t in traces
                     if t.parameter in concrete.assignments}
    if not environmental:
        raise IncompleteField("environmental_conditions")

    source_hash = concrete_hash(concrete)
    digest_input = {
        "source": source_hash,
        "meta": {"work_product_ref": work_product_ref, "preconditions": preconditions,
                 "configuration": configuration},
        "expected": _expected_to_dict(expected),
    }
    unique_id = "tc-" + content_hash(digest_input)[:16]

    return TestCase(
        unique_id=unique_id,
        work_product_ref=work_product_ref,
        preconditions=preconditions,
        configuration=configuration,
        environmental_conditions=environmental,
        input_data=tuple(traces),
        expected=expected,
        source_ref={"scenario_id": concrete.scenario_id, "hash": source_hash},
    )


def _expected_to_dict(expected: ExpectedBehavior) -> dict:
    return {
        "description": expected.description,
        "checks": [{"signal": c.signal, "comparator": c.comparator,
                    "bound": c.bound, "tolerance": c.tolerance} for c in expected.checks],
    }


def expected_from_dict(document: dict) -> ExpectedBehavior:
    check_document(document, "expected behavior", ("description",))
    checks = []
    for record in check_records(document.get("checks", []), "expected behavior: 'checks'"):
        try:
            tolerance = float(record["tolerance"])
            if tolerance < 0:
                raise SchemaViolation("check tolerance must be >= 0")
            checks.append(Check(signal=record["signal"], comparator=record["comparator"],
                                bound=float(record["bound"]), tolerance=tolerance))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad check record: {exc}") from exc
    return ExpectedBehavior(description=document["description"], checks=tuple(checks))


def load_expected(source: str) -> ExpectedBehavior:
    return expected_from_dict(load_json(source))


def testcase_to_dict(case: TestCase) -> dict:
    return {
        "format": "testcase/1",
        "unique_id": case.unique_id,
        "work_product_ref": case.work_product_ref,
        "preconditions": {"text": case.preconditions, "configuration": case.configuration},
        "environmental_conditions": {k: float(v) for k, v in
                                     case.environmental_conditions.items()},
        "input_data": [{"parameter": t.parameter, "unit": t.unit, "dt": t.dt,
                        "samples": list(t.samples)} for t in case.input_data],
        "expected_behavior": _expected_to_dict(case.expected),
        "source_ref": dict(case.source_ref),
    }


def testcase_from_dict(document: dict) -> TestCase:
    check_document(document, "test case",
                   ("unique_id", "work_product_ref", "preconditions", "environmental_conditions",
                    "input_data", "expected_behavior", "source_ref"), "testcase/1")
    preconditions = check_object(document["preconditions"], "test case: 'preconditions'")
    try:
        return TestCase(
            unique_id=document["unique_id"],
            work_product_ref=document["work_product_ref"],
            preconditions=preconditions["text"],
            configuration=preconditions["configuration"],
            environmental_conditions=check_numbers(document["environmental_conditions"],
                                                   "test case: 'environmental_conditions'"),
            input_data=tuple(TimeSeries(parameter=t["parameter"], unit=t["unit"],
                                        dt=float(t["dt"]),
                                        samples=tuple(float(s) for s in t["samples"]))
                             for t in document["input_data"]),
            expected=expected_from_dict(document["expected_behavior"]),
            source_ref=dict(check_object(document["source_ref"], "test case: 'source_ref'")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad test case record: {exc}") from exc


def serialize_testcase(case: TestCase) -> str:
    return dumps_canonical(testcase_to_dict(case))


def deserialize_testcase(source: str) -> TestCase:
    return testcase_from_dict(load_json(source))


def export_suite(cases: Iterable[TestCase], destination) -> dict:
    """Write one file per case plus a manifest; re-export is byte-identical.

    ``cases`` may be a generator: each case is serialized and written to a
    staging directory as it arrives. Only when every document is written is
    ``destination`` created and the files moved into it; if anything fails
    first, the staging directory and any parent directories made for it are
    removed, and ``destination`` is untouched.
    """
    destination = Path(destination)
    staging = destination.parent / (destination.name + ".staging")
    created = [directory for directory in staging.parents if not directory.exists()]
    staging.mkdir(parents=True, exist_ok=True)
    entries = {}
    try:
        for case in cases:
            if case.unique_id in entries:
                raise DuplicateId(f"duplicate test case id {case.unique_id!r}")
            payload = serialize_testcase(case).encode("utf-8")
            file_name = f"{case.unique_id}.json"
            (staging / file_name).write_bytes(payload)
            entries[case.unique_id] = {
                "unique_id": case.unique_id,
                "hash": hashlib.sha256(payload).hexdigest(),
                "file": file_name,
            }
        listed = [entries[unique_id] for unique_id in sorted(entries)]
        suite_hash = hashlib.sha256(
            "".join(sorted(e["hash"] for e in listed)).encode("ascii")).hexdigest()
        manifest = {
            "format": "manifest/1",
            "case_count": len(listed),
            "cases": listed,
            "suite_hash": suite_hash,
        }
        (staging / "manifest.json").write_bytes(dumps_canonical(manifest).encode("utf-8"))
        destination.mkdir(parents=True, exist_ok=True)
    except BaseException:  # staging, with the parents made for it
        shutil.rmtree(created[-1] if created else staging, ignore_errors=True)
        raise

    for name in [e["file"] for e in listed] + ["manifest.json"]:
        os.replace(staging / name, destination / name)
    staging.rmdir()
    return manifest
