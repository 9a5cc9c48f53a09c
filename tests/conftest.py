from __future__ import annotations

import copy
import random
from pathlib import Path

import pytest

from scenkit.functional import check_consistency, parse_functional
from scenkit.logical import Distribution, Inequality, LogicalScenario, Parameter, logical_hash
from scenkit.lowering import load_parameter_catalog, lower_to_logical
from scenkit.vocabulary import load_vocabulary

DATA = Path(__file__).parent / "data"

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def vocabulary():
    return load_vocabulary((DATA / "vocabulary.json").read_text())


@pytest.fixture(scope="session")
def catalog(vocabulary):
    return load_parameter_catalog((DATA / "catalog.json").read_text(), vocabulary)


@pytest.fixture(scope="session")
def car_follows_truck(vocabulary):
    scenario = parse_functional((DATA / "fig_car_follows_truck.scn").read_text(), vocabulary)
    assert check_consistency(scenario, vocabulary).ok
    return scenario


@pytest.fixture(scope="session")
def logical_scenario(car_follows_truck, catalog):
    return lower_to_logical(car_follows_truck, catalog)


def make_logical(names_ranges, constraints=(), scenario_id="fixture"):
    """Shorthand logical scenario builder for generator tests."""
    parameters = tuple(
        Parameter(name=name, unit="m", lo=float(lo), hi=float(hi))
        for name, lo, hi in names_ranges)
    built = tuple(
        Inequality(id=f"c{i:03d}", lhs=lhs, op=op, rhs=rhs)
        for i, (lhs, op, rhs) in enumerate(constraints))
    return LogicalScenario(scenario_id=scenario_id, parameters=parameters, constraints=built)


def random_logical(rng: random.Random, max_parameters=8, max_constraints=4,
                   scenario_id="random"):
    """A random logical scenario whose constraints are satisfiable by design:
    each constraint is anchored at a point drawn inside all ranges."""
    count = rng.randint(1, max_parameters)
    parameters = []
    for i in range(count):
        lo = round(rng.uniform(-50, 50), 3)
        hi = round(lo + rng.uniform(0.5, 100), 3)
        distribution = None
        if rng.random() < 0.25:
            mean = rng.uniform(lo, hi)
            distribution = Distribution(type="truncated-gaussian", mean=mean,
                                        stddev=(hi - lo) / 4)
        parameters.append(Parameter(name=f"p{i}", unit="m", lo=lo, hi=hi,
                                    distribution=distribution))
    witness = {p.name: rng.uniform(p.lo, p.hi) for p in parameters}
    constraints = []
    for i in range(rng.randint(0, max_constraints) if count >= 2 else 0):
        a, b = rng.sample(parameters, 2)
        if witness[a.name] >= witness[b.name]:
            op = rng.choice((">", ">="))
        else:
            op = rng.choice(("<", "<="))
        constraints.append(Inequality(id=f"c{i:03d}", lhs=a.name, op=op, rhs=b.name))
    return LogicalScenario(scenario_id=scenario_id, parameters=tuple(parameters),
                           constraints=tuple(constraints))


def json_paths(node, prefix=()):
    """Every path into a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from json_paths(child, prefix + (index,))


def replaced(document, path, value):
    """A copy of ``document`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


def source_ref_for(scenario):
    return {"scenario_id": scenario.scenario_id, "hash": logical_hash(scenario)}
