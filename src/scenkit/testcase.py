"""Augment concrete scenarios into executable test cases and export suites.

A test case carries the six mandatory fields: unique identification, work
product reference, preconditions/configuration, environmental conditions,
time-sequenced input data, and expected behavior with acceptable variations.
Input traces use constant-velocity kinematics: an instance with initial
position ``s0`` and speed ``v0`` yields position ``s(t) = s0 + v0*t``. The
input data hold only these signals; every other assignment, such as a lane
width, is an environmental condition, so each value is written once. An
export is compiled once, as an ``Export``: its checks, sample times and
signal plan are made before its first case, and every case reads them. Which
process creates all of its case files is decided by size at the first case.
"""

import hashlib
import math
import os
import shutil
import sys
from collections import Counter
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from .canonical import (
    EMPTY,
    INTEGER,
    NUMBER,
    NUMBERS,
    SOURCE_REF,
    STRING,
    TEXT,
    Choice,
    Field,
    List,
    Number,
    Record,
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


class TimeSeries(NamedTuple):
    parameter: str
    unit: str
    dt: float
    samples: tuple[float, ...]


class Check(NamedTuple):
    signal: str
    comparator: str
    bound: float
    tolerance: float


class ExpectedBehavior(NamedTuple):
    description: str
    checks: tuple[Check, ...] = ()


class TestCase(NamedTuple):
    unique_id: str
    work_product_ref: str
    preconditions: str
    configuration: str
    environmental_conditions: dict = EMPTY
    input_data: tuple[TimeSeries, ...] = ()
    expected: ExpectedBehavior = ExpectedBehavior(description="")
    source_ref: dict = EMPTY

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


def synthesize_traces(export: "Export", concrete: ConcreteScenario) -> list[TimeSeries]:
    """The kinematic signals of ``concrete`` on ``export.times``: for each
    entry of ``export.plan``, the position ``s0 + v0*t`` and the speed
    ``v0``, which need both assigned."""
    check_source(export.scenario, concrete)
    count = len(export.times)
    traces: list[TimeSeries] = []
    for position, s0_parameter, speed, v0_parameter in export.plan:
        s0 = concrete.assignments.get(s0_parameter.name)
        v0 = concrete.assignments.get(v0_parameter.name)
        if s0 is None or v0 is None:
            raise MissingKinematicInputs(f"{s0_parameter.name} and {v0_parameter.name} must "
                                         "both be assigned for trace synthesis")
        traces.append(TimeSeries(parameter=position, unit=s0_parameter.unit, dt=export.dt,
                                 samples=tuple([s0 + v0 * t for t in export.times])))
        traces.append(TimeSeries(parameter=speed, unit=v0_parameter.unit, dt=export.dt,
                                 samples=(v0,) * count))
    return traces


def assemble_test_case(export: "Export", concrete: ConcreteScenario,
                       traces: list[TimeSeries]) -> TestCase:
    """Build a test case; the unique id is a content hash, so identical inputs
    always produce the identical id. Each trace must start at the value of
    its source assignment (``export.sources``); every assignment that is no
    source is an environmental condition."""
    if not traces:
        raise IncompleteField("input_data")
    for trace in traces:
        name = export.sources.get(trace.parameter)
        if concrete.assignments.get(name) != trace.samples[0]:
            raise TraceMismatch(
                f"trace {trace.parameter!r} starts at {trace.samples[0]!r}, its source "
                f"{name!r} is {concrete.assignments.get(name)!r}")

    environmental = {name: value for name, value in concrete.assignments.items()
                     if name not in export.inputs}
    if not environmental:
        raise IncompleteField("environmental_conditions")

    source_hash = concrete_hash(concrete)
    digest = export.digest.copy()
    digest.update(f'"{source_hash}"\n}}\n'.encode("ascii"))  # a hex digest needs no escape

    return TestCase(
        "tc-" + digest.hexdigest()[:16],
        *export.fields,  # work_product_ref, preconditions, configuration
        environmental_conditions=environmental,
        input_data=tuple(traces),
        expected=export.expected,
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
_META_KEYS = ("work_product_ref", "preconditions", "configuration")
# What a unique id hashes: (expected behaviour, the ``_META_KEYS`` fields, source hash)
HEADER = Record(tuple, Field("expected", EXPECTED),
                Field("meta", Record(tuple, *[Field(key, STRING) for key in _META_KEYS])),
                Field("source", STRING))


expected_from_dict = EXPECTED.decode
load_expected = EXPECTED.loads
testcase_to_dict = TESTCASE.encode
testcase_from_dict = TESTCASE.decode
serialize_testcase = TESTCASE.dumps
deserialize_testcase = TESTCASE.loads

# The indent of a series of ``input_data`` in a test case file.
_SERIES_INDENT = "\n    "


class Export:
    """The compiled form of one export of ``scenarios``, made once. The
    constructor checks, in this order, the timing, the metadata and the
    expected behaviour (``IncompleteField``), and that every instance with
    ``scalar-initial`` parameters declares both ``s0`` and ``v0``
    (``MissingKinematicInputs``). It then holds:

    - ``times``, the sample times;
    - the signal plan: ``plan``, for each such instance ``<i>``, the signal
      ``<i>.s`` with the ``s0`` parameter and ``<i>.v`` with ``v0``; and
      ``sources``, the assignment each signal starts from, whose names are
      the ``inputs``;
    - ``fields``, the metadata, and ``digest``, the sha256 state of the
      unique id up to the value of its last key, ``"source"``;
    - the text of the expected behaviour, and the text of each trace that
      recurs in a later case: a position trace of the same ``(signal, s0,
      v0)``, a speed trace of the same ``(signal, v0)``. Those are keyed
      on exact float bits, so ``-0.0`` and ``0.0`` differ, and counted in
      one pass over the suite; each text is dropped after its last use, so a
      suite without repeats keeps none."""

    def __init__(self, scenario: LogicalScenario, scenarios: list[ConcreteScenario],
                 duration: float, dt: float, meta: dict, expected: ExpectedBehavior):
        check_timing(dt, duration)
        self.fields = tuple(meta.get(key, "") for key in _META_KEYS)
        for key, value in zip(_META_KEYS, self.fields):
            if not value:
                raise IncompleteField(key)
        if not expected.description:
            raise IncompleteField("expected_behavior")
        initial: dict[str, dict] = {}
        for parameter in scenario.parameters:
            if parameter.kind == "scalar-initial":
                instance, _, local = parameter.name.partition(".")
                initial.setdefault(instance, {})[local] = parameter
        self.plan, self.sources = [], {}
        for instance, parameters in initial.items():
            if "s0" not in parameters or "v0" not in parameters:
                raise MissingKinematicInputs(
                    f"instance {instance!r} needs both s0 and v0 for trace synthesis")
            position, speed = f"{instance}.s", f"{instance}.v"
            self.plan.append((position, parameters["s0"], speed, parameters["v0"]))
            self.sources.update({position: parameters["s0"].name, speed: parameters["v0"].name})
        self.inputs = set(self.sources.values())
        self.scenario, self.dt, self.expected = scenario, dt, expected
        self.times = [i * dt for i in range(math.floor(duration / dt) + 1)]
        text = HEADER.dumps((expected, self.fields, ""))
        # "source" sorts last: the text ends with its empty value and the brace
        self.digest = hashlib.sha256(text[:-len('""\n}\n')].encode("utf-8"))
        self.expected_text = EXPECTED.write(expected, "\n  ")
        self.write = TESTCASE.writer(input_data=List(TEXT), expected_behavior=TEXT)
        uses = Counter(key for concrete in scenarios for key in self._keys(concrete))
        self.repeats = {key: [count, None] for key, count in uses.items()
                        if count > 1 and key is not None}  # key: [uses left, text]

    def _keys(self, concrete: ConcreteScenario):
        """The key of each trace, in trace order; None where ``s0`` or ``v0``
        is not a float. Floats that are equal and not zero have the same
        bits; a zero is keyed by its hex form, which keeps its sign."""
        for position, s0_parameter, speed, v0_parameter in self.plan:
            s0 = concrete.assignments.get(s0_parameter.name)
            v0 = concrete.assignments.get(v0_parameter.name)
            floats = type(s0) is type(v0) is float
            yield (position, s0 or s0.hex(), v0 or v0.hex()) if floats else None
            yield (speed, v0 or v0.hex()) if floats else None

    def case(self, concrete: ConcreteScenario) -> TestCase:
        """The test case of ``concrete``."""
        return assemble_test_case(self, concrete, synthesize_traces(self, concrete))

    def _series(self, key, trace: TimeSeries) -> str:
        entry = self.repeats.get(key)
        if entry is None:
            return SERIES.write(trace, _SERIES_INDENT)
        if entry[1] is None:
            entry[1] = SERIES.write(trace, _SERIES_INDENT)
        entry[0] -= 1
        if not entry[0]:
            del self.repeats[key]
        return entry[1]

    def render(self, concrete: ConcreteScenario) -> tuple[str, str]:
        """The unique id and file text of the test case of ``concrete``,
        equal to ``serialize_testcase`` of that case."""
        case = self.case(concrete)
        texts = [self._series(key, trace)
                 for key, trace in zip(self._keys(concrete), case.input_data)]
        return case.unique_id, dumps_canonical(
            case._replace(input_data=texts, expected=self.expected_text), self.write)


# An export hands every case file to a writer process when its first payload
# times its case count reaches this size. Starting the writer costs about 20 ms,
# and the system time of creating the files then runs on another CPU while this
# process encodes: that pays off for the 25 MB of a 2,000-case export, not for
# the 0.1-0.3 MB of one pairwise suite, which the encoding process writes itself.
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


def export_suite(cases: Iterable[tuple[str, str]], destination, count: int) -> dict:
    """Write one file per case plus a manifest; re-export is byte-identical.

    ``cases`` holds each case's unique id and file text, as ``Export.render``
    gives them, and may be a generator: each case is hashed and written to a
    staging directory as it arrives. Who creates the case files is decided
    once, at the first case: if its payload times ``count``, the number of
    cases, reaches ``HANDOFF_BYTES``, a writer process creates every one, so
    their system time overlaps with encoding; otherwise this process creates
    every one and starts no process. When every document is written, the
    staging directory becomes ``destination`` in one rename if ``destination``
    does not exist; otherwise the files are moved into it, and the case files
    its old manifest lists that the new one does not are deleted. If anything
    fails first, the writer is stopped and reaped, the staging directory and
    any parent directories made for it are removed, and ``destination`` is
    untouched.
    """
    destination = Path(destination)
    staging = destination.parent / (destination.name + ".staging")
    created = [directory for directory in staging.parents if not directory.exists()]
    shutil.rmtree(staging, ignore_errors=True)  # left behind by an export that was killed
    staging.mkdir(parents=True)
    entries = {}
    writer = None
    try:
        for unique_id, text in cases:
            if unique_id in entries:
                raise DuplicateId(f"duplicate test case id {unique_id!r}")
            payload = text.encode("utf-8")
            file_name = f"{unique_id}.json"
            if not entries and len(payload) * count >= HANDOFF_BYTES:
                writer = _start_writer(staging)
            if writer is None:
                (staging / file_name).write_bytes(payload)
            else:
                name = file_name.encode("utf-8")
                writer.stdin.write(len(name).to_bytes(4, "big") + len(payload).to_bytes(8, "big")
                                   + name + payload)
            entries[unique_id] = {
                "unique_id": unique_id,
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
        manifest = dict([MANIFEST.tag], case_count=len(listed), cases=listed, suite_hash=suite_hash)
        (staging / "manifest.json").write_bytes(MANIFEST.dumps(manifest).encode("utf-8"))
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
