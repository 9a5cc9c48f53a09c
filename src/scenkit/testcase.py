"""Augment concrete scenarios into executable test cases and export suites.

A test case carries the six mandatory fields: unique identification, work
product reference, preconditions/configuration, environmental conditions,
time-sequenced input data, and expected behavior with acceptable variations.
Input traces use constant-velocity kinematics: an instance with initial
position ``s0`` and speed ``v0`` yields position ``s(t) = s0 + v0*t``. The
input data hold only these signals; every other assignment, such as a lane
width, is an environmental condition, so each value is written once.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import (
    INTEGER,
    NUMBER,
    NUMBERS,
    SOURCE_REF,
    STRING,
    Choice,
    Field,
    List,
    Number,
    Record,
    content_hash,
    dumps_canonical,
)
from .concretize import ConcreteScenario, check_source, concrete_hash
from .errors import (
    BadTiming,
    DuplicateId,
    IncompleteField,
    MissingKinematicInputs,
    ScenarioError,
    TraceMismatch,
)
from .expressions import COMPARATORS
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

    @property
    def setup(self) -> tuple[str, str]:
        """The ``preconditions`` record: the precondition text and the configuration."""
        return self.preconditions, self.configuration


# A million samples per signal already make a case file of tens of megabytes;
# far smaller steps only exhaust memory.
MAX_SAMPLES = 1_000_000


def check_timing(dt: float, duration: float) -> None:
    """The one timing rule: both finite, ``0 < dt <= duration``, and at most
    ``MAX_SAMPLES`` samples per signal."""
    if not (math.isfinite(dt) and math.isfinite(duration) and 0 < dt <= duration):
        raise BadTiming(f"need finite 0 < dt <= duration, got dt={dt}, duration={duration}")
    if duration / dt >= MAX_SAMPLES:  # floor(duration / dt) + 1 samples
        raise BadTiming(f"dt={dt}, duration={duration} gives more than {MAX_SAMPLES} "
                        f"samples per signal")


def synthesize_traces(scenario: LogicalScenario, concrete: ConcreteScenario,
                      duration: float, dt: float) -> list[TimeSeries]:
    """The kinematic signals: position ``<i>.s`` and speed ``<i>.v`` of every
    instance with ``scalar-initial`` parameters, which needs both ``s0`` and
    ``v0`` declared and assigned. Every other assignment is an environmental
    condition."""
    check_timing(dt, duration)
    check_source(scenario, concrete)

    count = math.floor(duration / dt) + 1
    times = [i * dt for i in range(count)]

    initial: dict[str, dict] = {}
    for parameter in scenario.parameters:
        if parameter.kind == "scalar-initial":
            instance, _, local = parameter.name.partition(".")
            initial.setdefault(instance, {})[local] = parameter

    traces: list[TimeSeries] = []
    for instance, parameters in initial.items():
        s0 = concrete.assignments.get(f"{instance}.s0")
        v0 = concrete.assignments.get(f"{instance}.v0")
        if "s0" not in parameters or "v0" not in parameters or s0 is None or v0 is None:
            raise MissingKinematicInputs(
                f"instance {instance!r} needs both s0 and v0 for trace synthesis")
        traces.append(TimeSeries(parameter=f"{instance}.s", unit=parameters["s0"].unit,
                                 dt=dt, samples=tuple([s0 + v0 * t for t in times])))
        traces.append(TimeSeries(parameter=f"{instance}.v", unit=parameters["v0"].unit,
                                 dt=dt, samples=(v0,) * count))
    return traces


def recover_assignments(concrete: ConcreteScenario, traces: list[TimeSeries]) -> dict:
    """Invert trace synthesis: ``s0`` and ``v0`` from the t=0 samples of the
    ``s`` and ``v`` signals."""
    recovered: dict[str, float] = {}
    for trace in traces:
        instance, _, local = trace.parameter.rpartition(".")
        if local in ("s", "v") and f"{instance}.{local}0" in concrete.assignments:
            recovered[f"{instance}.{local}0"] = trace.samples[0]
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

    environmental = {name: value for name, value in concrete.assignments.items()
                     if name not in recovered}
    if not environmental:
        raise IncompleteField("environmental_conditions")

    source_hash = concrete_hash(concrete)
    digest_input = {
        "source": source_hash,
        "meta": {"work_product_ref": work_product_ref, "preconditions": preconditions,
                 "configuration": configuration},
        "expected": EXPECTED.encode(expected),
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


def _testcase(setup: tuple[str, str], **fields) -> TestCase:
    return TestCase(preconditions=setup[0], configuration=setup[1], **fields)


SERIES = Record(TimeSeries, Field("parameter", STRING), Field("unit", STRING), Field("dt", NUMBER),
                Field("samples", List(NUMBER)))
CHECK = Record(Check, Field("signal", STRING), Field("comparator", Choice(COMPARATORS)),
               Field("bound", NUMBER), Field("tolerance", Number(minimum=0.0)))
EXPECTED = Record(ExpectedBehavior, Field("description", STRING), Field("checks", List(CHECK), ()),
                  name="expected")
TESTCASE = Record(_testcase, Field("unique_id", STRING), Field("work_product_ref", STRING),
                  Field("preconditions", Record(tuple, Field("text", STRING),
                                                Field("configuration", STRING)), attr="setup"),
                  Field("environmental_conditions", NUMBERS), Field("input_data", List(SERIES)),
                  Field("expected_behavior", EXPECTED, attr="expected"),
                  Field("source_ref", SOURCE_REF), tag=("format", "testcase/2"), name="testcase")
MANIFEST = Record(dict, Field("case_count", INTEGER),
                  Field("cases", List(Record(dict, Field("unique_id", STRING),
                                             Field("hash", STRING), Field("file", STRING)))),
                  Field("suite_hash", STRING), tag=("format", "manifest/1"), name="manifest")


expected_from_dict = EXPECTED.decode
load_expected = EXPECTED.loads
testcase_to_dict = TESTCASE.encode
testcase_from_dict = TESTCASE.decode
serialize_testcase = TESTCASE.dumps
deserialize_testcase = TESTCASE.loads


# Payload bytes an export writes itself before it hands the rest of its case
# files to a writer process. Starting that process costs about 20 ms, and
# creating a file costs system time that then runs on another CPU while this
# process goes on encoding: that pays off for the 25 MB of a 2,000-case export,
# not for the 0.1-0.3 MB of one pairwise suite, which stays below this size.
HANDOFF_BYTES = 1 << 20

# The writer: reads (name, payload) records from stdin, each a 4-byte name
# length and an 8-byte payload length (big-endian) followed by both, and
# writes each payload to that plain file name in the staging directory.
_WRITER_SOURCE = """\
import os, sys
staging, read = sys.argv[1], sys.stdin.buffer.read
while head := read(12):
    name = read(int.from_bytes(head[:4], "big")).decode()
    size = int.from_bytes(head[4:], "big")
    payload = read(size)
    if len(head) < 12 or len(payload) < size or not name or os.sep in name:
        sys.exit(1)
    with open(os.path.join(staging, name), "wb") as file:
        file.write(payload)
"""


def _start_writer(staging: Path):
    """The writer process for ``staging``, or None without an interpreter to
    run it (an embedded Python)."""
    if not sys.executable:
        return None
    import subprocess  # only large exports pay for the import

    writer = subprocess.Popen([sys.executable, "-I", "-S", "-c", _WRITER_SOURCE, str(staging)],
                              stdin=subprocess.PIPE)
    # A 64 KiB pipe holds three 21 KB case files, so the encoder blocks about
    # 700 times per 2,000 cases waiting for the writer to be scheduled; on a
    # loaded 2-CPU host that made an export slower than writing in-process.
    # 1 MiB, the largest size Linux grants without privileges, cuts it to ~40.
    try:
        import fcntl

        fcntl.fcntl(writer.stdin, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (ImportError, AttributeError, OSError):  # not Linux, or over the user's pipe quota
        pass
    return writer


def _stop_writer(writer) -> None:
    """Kill the writer if it still runs, close its pipe and reap it."""
    if writer.poll() is None:
        writer.kill()
    try:
        writer.stdin.close()
    except OSError:  # the unflushed rest of a record, with no reader left
        pass
    writer.wait()


def _listed_files(manifest_path: Path) -> set[str]:
    """The case file names a ``manifest/1`` file lists: plain ``*.json`` names
    only, and none if the file is missing or malformed."""
    try:
        manifest = MANIFEST.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, ScenarioError):  # ValueError: not UTF-8
        return set()
    names = {entry["file"] for entry in manifest["cases"]}
    return {name for name in names
            if name.endswith(".json") and name != "manifest.json"
            and os.path.basename(name) == name}


def export_suite(cases: Iterable[TestCase], destination) -> dict:
    """Write one file per case plus a manifest; re-export is byte-identical.

    ``cases`` may be a generator: each case is serialized, hashed and written
    to a staging directory as it arrives. Once ``HANDOFF_BYTES`` of payload
    are written, the remaining files go through a pipe to a writer process,
    so the system time of creating them overlaps with encoding; smaller
    exports never start one. When every document is written, the staging
    directory becomes ``destination`` in one rename if ``destination`` does
    not exist; otherwise the files are moved into it, and the case files its
    old manifest lists that the new one does not are deleted. If anything
    fails first, the writer is stopped and reaped, the staging directory and
    any parent directories made for it are removed, and ``destination`` is
    untouched.
    """
    destination = Path(destination)
    staging = destination.parent / (destination.name + ".staging")
    created = [directory for directory in staging.parents if not directory.exists()]
    staging.mkdir(parents=True, exist_ok=True)
    entries = {}
    staged = 0
    writer = None
    try:
        for case in cases:
            if case.unique_id in entries:
                raise DuplicateId(f"duplicate test case id {case.unique_id!r}")
            payload = serialize_testcase(case).encode("utf-8")
            file_name = f"{case.unique_id}.json"
            if writer is None:
                (staging / file_name).write_bytes(payload)
                staged += len(payload)
                if staged >= HANDOFF_BYTES:
                    writer = _start_writer(staging)
            else:
                name = file_name.encode("utf-8")
                writer.stdin.write(len(name).to_bytes(4, "big") + len(payload).to_bytes(8, "big")
                                   + name + payload)
            entries[case.unique_id] = {
                "unique_id": case.unique_id,
                "hash": hashlib.sha256(payload).hexdigest(),
                "file": file_name,
            }
        if writer is not None:
            writer.stdin.close()
            if writer.wait():
                raise OSError(f"case file writer exited with status {writer.returncode}")
        listed = [entries[unique_id] for unique_id in sorted(entries)]
        suite_hash = hashlib.sha256(
            "".join(sorted(e["hash"] for e in listed)).encode("ascii")).hexdigest()
        manifest = MANIFEST.encode({"case_count": len(listed), "cases": listed,
                                    "suite_hash": suite_hash})
        (staging / "manifest.json").write_bytes(dumps_canonical(manifest).encode("utf-8"))
        if not destination.exists():
            staging.rename(destination)
            return manifest
        destination.mkdir(exist_ok=True)  # raises if it is a file
    except BaseException:  # the writer, then staging with the parents made for it
        if writer is not None:
            _stop_writer(writer)
        shutil.rmtree(created[-1] if created else staging, ignore_errors=True)
        raise

    stale = _listed_files(destination / "manifest.json").difference(e["file"] for e in listed)
    for name in [e["file"] for e in listed] + ["manifest.json"]:
        os.replace(staging / name, destination / name)
    staging.rmdir()
    for name in stale:
        if (destination / name).is_file():
            (destination / name).unlink()
    return manifest
