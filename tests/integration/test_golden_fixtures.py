"""Golden regression fixtures: every engine against committed expected output.

``tests/fixtures/golden/*.json`` holds small deterministic problems with
their expected final beliefs, iteration counts and convergence flags, as
computed by the in-memory engines when the fixture was recorded.  One
parametrized test runs *every* execution path — the batched engine, the
SQLite backend, and DuckDB when installed — against the same fixture.  Any future
engine divergence, however subtle, fails here first.

Regenerate a fixture only for an intentional semantic change, by re-running
the engines and committing the new JSON alongside the change that explains
it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.coupling.matrices import CouplingMatrix
from repro.engine.batch import run_batch
from repro.engine.plan import get_plan
from repro.engine.sbp_plan import run_sbp_batch
from repro.graphs import Graph
from repro.relational.backends import BACKENDS, get_backend

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
FIXTURE_PATHS = sorted(GOLDEN_DIR.glob("*.json"))

TOLERANCE = 1e-10

needs_duckdb = pytest.mark.skipif(not BACKENDS["duckdb"].is_available(),
                                  reason="duckdb is not installed")


@pytest.fixture(params=FIXTURE_PATHS, ids=lambda path: path.stem)
def golden(request):
    """One parsed golden fixture: problem inputs plus expected outputs."""
    data = json.loads(request.param.read_text())
    graph = Graph.from_edges([tuple(edge) for edge in data["edges"]],
                             num_nodes=data["num_nodes"])
    coupling = CouplingMatrix.from_stochastic(
        np.asarray(data["coupling_stochastic"], dtype=float),
        epsilon=data["epsilon"])
    explicit = np.zeros((data["num_nodes"], coupling.num_classes))
    for node, row in data["explicit"]:
        explicit[node] = row
    return {"graph": graph, "coupling": coupling, "explicit": explicit,
            "data": data}


def test_fixtures_exist():
    assert FIXTURE_PATHS, f"no golden fixtures found under {GOLDEN_DIR}"


# ---------------------------------------------------------------------- #
# LinBP / LinBP* across every engine
# ---------------------------------------------------------------------- #
def _run_batch_engine(golden, echo):
    plan = get_plan(golden["graph"], golden["coupling"],
                    echo_cancellation=echo)
    return run_batch(plan, [golden["explicit"]],
                     max_iterations=golden["data"]["max_iterations"],
                     tolerance=golden["data"]["tolerance"])[0]


def _run_backend_engine(name):
    def runner(golden, echo):
        with get_backend(name) as backend:
            backend.load_graph(golden["graph"], golden["coupling"],
                               golden["explicit"])
            return backend.run_linbp(
                max_iterations=golden["data"]["max_iterations"],
                tolerance=golden["data"]["tolerance"],
                echo_cancellation=echo)
    return runner


LINBP_ENGINES = {
    "batch": _run_batch_engine,
    "sqlite": _run_backend_engine("sqlite"),
    "duckdb": _run_backend_engine("duckdb"),
}

ENGINE_PARAMS = [
    pytest.param(name, marks=(needs_duckdb,) if name == "duckdb" else ())
    for name in LINBP_ENGINES
]


@pytest.mark.parametrize("engine", ENGINE_PARAMS)
@pytest.mark.parametrize("variant", ["linbp", "linbp_star"])
def test_linbp_golden(golden, engine, variant):
    expected = golden["data"][variant]
    result = LINBP_ENGINES[engine](golden, echo=(variant == "linbp"))
    np.testing.assert_allclose(result.beliefs,
                               np.asarray(expected["beliefs"]),
                               rtol=0, atol=TOLERANCE)
    assert result.iterations == expected["iterations"], \
        f"{engine} took {result.iterations} iterations, " \
        f"expected {expected['iterations']}"
    assert result.converged == expected["converged"]


# ---------------------------------------------------------------------- #
# SBP across every engine that implements it
# ---------------------------------------------------------------------- #
def _run_sbp_batch_engine(golden):
    return run_sbp_batch(golden["graph"], golden["coupling"],
                         [golden["explicit"]])[0]


def _run_sbp_backend(name):
    def runner(golden):
        with get_backend(name) as backend:
            backend.load_graph(golden["graph"], golden["coupling"],
                               golden["explicit"])
            return backend.run_sbp()
    return runner


SBP_ENGINES = {
    "batch": _run_sbp_batch_engine,
    "sqlite": _run_sbp_backend("sqlite"),
    "duckdb": _run_sbp_backend("duckdb"),
}


@pytest.mark.parametrize(
    "engine",
    [pytest.param(name, marks=(needs_duckdb,) if name == "duckdb" else ())
     for name in SBP_ENGINES])
def test_sbp_golden(golden, engine):
    expected = golden["data"]["sbp"]
    result = SBP_ENGINES[engine](golden)
    np.testing.assert_allclose(result.beliefs,
                               np.asarray(expected["beliefs"]),
                               rtol=0, atol=TOLERANCE)
    assert result.iterations == expected["iterations"]
    assert result.converged is True
    assert list(result.extra["geodesic_numbers"]) == \
        expected["geodesic_numbers"]
