"""Workload inputs for the scenkit benchmark, made from the benchmark seed.

A workload is a list of operations. One operation is one scenario file taken
through to exported test cases by one or more CLI invocations. Each operation
also carries a `Model`: what the benchmark itself knows the scenario file
says, so `reference.py` can check the outputs without asking scenkit.

The seed of `pairwise-ladder` changes instance ids, vehicle types, road layout,
lanes and which extra road parameter a curved road gets. It never changes a
rung's shape (parameters, constraints, levels, declaration order), so every
seed costs the same amount of work. The worked example is the README input and
takes no seed; `random-bulk` passes a seed derived from it to the sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path("tests") / "data"
WORKED_EXAMPLE = DATA / "fig_car_follows_truck.scn"
GOLDEN_LOGICAL = DATA / "golden" / "s1.logical.json"
WORK_PRODUCT = "req-keep-distance-001"
RANDOM_BULK_N = 2000

WORKLOADS = ("worked-example", "pairwise-ladder", "random-bulk")


@dataclass(frozen=True)
class Model:
    """A functional scenario as the benchmark wrote it down."""

    scenario_id: str
    road: str
    geometry: str  # straight | curve | clothoid
    vehicles: tuple[tuple[str, str], ...]  # (instance id, car | truck), declaration order
    follows: tuple[tuple[str, str], ...] = ()  # (a, b): a drives behind b, so b.s0 > a.s0


@dataclass
class Operation:
    name: str  # output subdirectory of the operation
    model: Model
    method: str  # pairwise | random
    k: int = 2
    n: int = 0
    golden: Path | None = None  # expected logical file bytes, when known
    argv: list = field(default_factory=list)  # CLI invocations; "{out}" is the output dir


@dataclass
class Workload:
    operations: list

    def invocations(self, out: Path) -> list[tuple[int, list[str]]]:
        """(operation index, argv) for every CLI call, outputs under ``out``."""
        calls = []
        for index, operation in enumerate(self.operations):
            target = str(out / operation.name)
            for argv in operation.argv:
                calls.append((index, [a.replace("{out}", target) for a in argv]))
        return calls


def data_files(root: Path) -> dict:
    return {"vocab": str(root / DATA / "vocabulary.json"),
            "catalog": str(root / DATA / "catalog.json"),
            "expected": str(root / DATA / "expected.json")}


def _pipeline(files: dict, scenario: Path, method: str, k: int, seed: int) -> list[str]:
    return ["pipeline", "--vocab", files["vocab"], "--catalog", files["catalog"],
            "--out", "{out}", "--method", method, "--k", str(k), "--seed", str(seed),
            "--expected", files["expected"], "--work-product", WORK_PRODUCT, str(scenario)]


WORKED_MODEL = Model(scenario_id="s1", road="r1", geometry="curve",
                     vehicles=(("c1", "car"), ("t1", "truck")), follows=(("c1", "t1"),))


def worked_example(root: Path, seed: int, inputs: Path) -> Workload:
    files = data_files(root)
    argv = _pipeline(files, root / WORKED_EXAMPLE, "pairwise", 2, 42)
    return Workload([Operation("s1", WORKED_MODEL, "pairwise", k=2,
                               golden=root / GOLDEN_LOGICAL, argv=[argv])])


def random_bulk(root: Path, seed: int, inputs: Path) -> Workload:
    files = data_files(root)
    scenkit_seed = random.Random(f"random-bulk/{seed}").randrange(2**31)
    logical = "{out}/logical/s1.logical.json"
    argv = [
        ["lower", "--vocab", files["vocab"], "--catalog", files["catalog"],
         "--out", "{out}/logical", str(root / WORKED_EXAMPLE)],
        ["concretize", "--method", "random", "--n", str(RANDOM_BULK_N),
         "--seed", str(scenkit_seed), "--out", "{out}/concrete", logical],
        ["export", "--logical", logical, "--expected", files["expected"],
         "--work-product", WORK_PRODUCT, "--dt", "0.1", "--out", "{out}/cases/s1",
         "{out}/concrete/s1.suite.json"],
    ]
    return Workload([Operation("s1", WORKED_MODEL, "random", n=RANDOM_BULK_N,
                               golden=root / GOLDEN_LOGICAL, argv=argv)])


# (extra road parameter?, vehicles, follows links in a chain, k). Levels per
# parameter are 2 + k. The 8-parameter unconstrained rung at 4 levels is left
# out: it takes about 14 s and 509 MB today.
LADDER = (
    (False, 3, 2, 2),  # 8 params, 2 constraints, 4 levels
    (True, 2, 0, 2),   # 7 params, unconstrained, 4 levels
    (False, 3, 0, 1),  # 8 params, unconstrained, 3 levels
    (False, 2, 1, 3),  # 6 params, 1 constraint, 5 levels
    (True, 1, 0, 2),   # 5 params
    (False, 1, 0, 2),  # 4 params
)


def _ladder_model(rng: random.Random, rung: int, curved: bool, vehicles: int,
                  links: int) -> Model:
    ids = rng.sample(range(100, 1000), vehicles + 1)
    return Model(
        scenario_id=f"rung{rung}",
        road=f"rd{ids[0]}",
        geometry=rng.choice(("curve", "clothoid")) if curved else "straight",
        vehicles=tuple((f"veh{i}", rng.choice(("car", "truck"))) for i in ids[1:]),
        # each vehicle drives behind the next one declared
        follows=tuple((f"veh{ids[i + 1]}", f"veh{ids[i + 2]}") for i in range(links)),
    )


def render_dsl(model: Model, rng: random.Random) -> str:
    layout = rng.choice(("two-lane-motorway", "three-lane-motorway"))
    lines = [f"# generated benchmark scenario {model.scenario_id}",
             f"scenario {model.scenario_id}",
             f"road {model.road} is {layout}",
             f"{model.road} geometry {model.geometry}"]
    lines += [f"{kind} {instance}" for instance, kind in model.vehicles]
    lines += [f"{a} follows {b}" for a, b in model.follows]
    lines += [f"{instance} lane {rng.choice(('left', 'right'))}" for instance, _ in model.vehicles]
    return "\n".join(lines) + "\n"


def pairwise_ladder(root: Path, seed: int, inputs: Path) -> Workload:
    files = data_files(root)
    rng = random.Random(f"pairwise-ladder/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    operations = []
    for rung, (curved, vehicles, links, k) in enumerate(LADDER, start=1):
        model = _ladder_model(rng, rung, curved, vehicles, links)
        path = inputs / f"{model.scenario_id}.scn"
        path.write_text(render_dsl(model, rng), encoding="utf-8")
        argv = _pipeline(files, path, "pairwise", k, rng.randrange(2**31))
        operations.append(Operation(model.scenario_id, model, "pairwise", k=k, argv=[argv]))
    return Workload(operations)


def build(name: str, root: Path, seed: int, inputs: Path) -> Workload:
    makers = {"worked-example": worked_example, "pairwise-ladder": pairwise_ladder,
              "random-bulk": random_bulk}
    return makers[name](root, seed, inputs)
