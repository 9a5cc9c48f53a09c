"""The benchmark's tracer wraps scenkit functions by name and module; a rename
under ``src/`` must fail here, not only in ``perfbench/run.py --trace 1``."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import DATA

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def test_worker_traces_every_layer(tmp_path):
    files = {"vocab": str(DATA / "vocabulary.json"), "catalog": str(DATA / "catalog.json"),
             "expected": str(DATA / "expected.json")}
    export = ["--expected", files["expected"], "--work-product", "req-keep-distance-001",
              "--duration", "2", "--dt", "1"]
    logical = str(tmp_path / "run" / "logical" / "s1.logical.json")
    invocations = [
        [0, ["pipeline", "--vocab", files["vocab"], "--catalog", files["catalog"],
             "--out", str(tmp_path / "run"), str(DATA / "fig_car_follows_truck.scn")] + export],
        [1, ["concretize", "--out", str(tmp_path / "random"), "--method", "random", "--n", "3",
             logical]],
        [1, ["export", "--logical", logical, "--out", str(tmp_path / "cases"),
             str(tmp_path / "random" / "s1.suite.json")] + export],
    ]
    spec = {"src": str(ROOT / "src"), "files": files, "mode": "run", "trace": True,
            "invocations": invocations}
    completed = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                               capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert [code for _, code, _, _ in result["results"]] == [0, 0, 0]
    spans = result["trace"]["spans"]
    for name in ("vocabulary.load", "lowering.catalog", "functional.parse",
                 "functional.consistency", "lowering.lower", "logical.validate",
                 "logical.serialize", "logical.deserialize", "concretize.pairwise",
                 "concretize.sample", "concretize.coverage", "concretize.suite_io",
                 "testcase.traces", "testcase.assemble", "testcase.export",
                 "expressions.parse", "canonical.dumps"):
        assert spans[name]["calls"] > 0, name
