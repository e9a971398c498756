"""Every entry point refuses a malformed or non-finite ``Ê`` or update.

The runners, the batched engines, the SQLite backend and the service all
take explicit beliefs through :func:`repro.beliefs.checked_explicit` and
updates through :func:`repro.beliefs.checked_update`, so each refusal
below is the same :class:`ValidationError` naming the node, class or
field, raised before any state changes.  The workload is a 6-node chain;
the service's refusals are in ``tests/service/test_service.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SBP,
    IncrementalLinBP,
    LinBP,
    belief_propagation,
    fabp,
    fabp_batch,
    fabp_closed_form,
    linbp,
    linbp_closed_form,
    sbp,
)
from repro.coupling import CouplingMatrix
from repro.engine import get_plan, run_batch
from repro.engine.sbp_plan import run_sbp_batch
from repro.exceptions import ValidationError
from repro.graphs import Graph
from repro.relational import SQLiteBackend

NUM_NODES = 6
ROW = np.array([0.1, -0.05, -0.05])


def _chain():
    graph = Graph.from_edges([(node, node + 1)
                              for node in range(NUM_NODES - 1)])
    residual = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                         [-1.0, -1.0, 2.0]]) / 3.0
    explicit = np.zeros((NUM_NODES, 3))
    explicit[0] = ROW
    explicit[NUM_NODES - 1] = np.roll(ROW, 1)
    return graph, CouplingMatrix.from_residual(residual, epsilon=0.3), explicit


def _sqlite_load(graph, coupling, explicit):
    with SQLiteBackend() as backend:
        backend.load_graph(graph, coupling, explicit)


ENTRY_POINTS = {
    "sbp": sbp,
    "run_sbp_batch": lambda g, c, e: run_sbp_batch(g, c, [e]),
    "linbp": linbp,
    "linbp_closed_form": linbp_closed_form,
    "run_batch": lambda g, c, e: run_batch(get_plan(g, c), [e]),
    "IncrementalLinBP.run": lambda g, c, e: IncrementalLinBP(g, c).run(e),
    "belief_propagation": belief_propagation,
    "SQLiteBackend.load_graph": _sqlite_load,
}


@pytest.mark.parametrize("entry_point", list(ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_explicit_beliefs_are_refused(entry_point, value):
    graph, coupling, explicit = _chain()
    explicit[4, 1] = value
    with pytest.raises(ValidationError,
                       match="node 4 class 1 is not finite"):
        ENTRY_POINTS[entry_point](graph, coupling, explicit)


def _maintained(kind: str):
    """A maintained result of ``kind`` after its first run on the chain."""
    graph, coupling, explicit = _chain()
    if kind == "SQLiteBackend":
        runner = SQLiteBackend().connect()
        runner.load_graph(graph, coupling, explicit)
        runner.run_sbp()
    else:
        runner = (SBP if kind == "SBP" else IncrementalLinBP)(graph, coupling)
        runner.run(explicit)
    return runner


def _state(runner):
    if isinstance(runner, SQLiteBackend):
        return (runner.fetch_beliefs(), runner.fetch_geodesic_numbers(),
                runner.table_counts())
    return runner.beliefs, runner.graph.adjacency.toarray()


def _assert_same_state(before, after):
    for old, new in zip(before, after):
        assert np.array_equal(old, new)


def _nan_row():
    matrix = np.zeros((NUM_NODES, 3))
    matrix[3] = [0.1, np.nan, -0.1]
    return matrix


NAN_MESSAGE = "belief value nan for node 3 class 1 is not finite"
#: SQLiteBackend.add_explicit_beliefs takes matrices only; SBP's node
#: range checks are in tests/core/test_sbp.py.
LABEL_UPDATES = [
    *[pytest.param(kind, _nan_row(), NAN_MESSAGE, id=f"{kind}-nan-matrix")
      for kind in ("SBP", "IncrementalLinBP", "SQLiteBackend")],
    *[pytest.param(kind, {3: [0.1, np.nan, -0.1]}, NAN_MESSAGE,
                   id=f"{kind}-nan-mapping")
      for kind in ("SBP", "IncrementalLinBP")],
    pytest.param("IncrementalLinBP", {-1: ROW}, "node -1 out of range [0, 6)",
                 id="IncrementalLinBP-node-minus-one"),
    pytest.param("IncrementalLinBP", {2: ROW, NUM_NODES: ROW},
                 "node 6 out of range [0, 6)", id="IncrementalLinBP-node-n"),
]


@pytest.mark.parametrize("kind, update, message", LABEL_UPDATES)
def test_malformed_label_updates_are_refused_before_any_change(
        kind, update, message):
    runner = _maintained(kind)
    before = _state(runner)
    with pytest.raises(ValidationError) as raised:
        runner.add_explicit_beliefs(update)
    assert message in str(raised.value)
    _assert_same_state(before, _state(runner))
    if kind == "SQLiteBackend":
        runner.close()


@pytest.mark.parametrize("kind", ["SBP", "IncrementalLinBP"])
def test_non_numeric_edges_are_refused_before_any_change(kind):
    edges = [(0, "a")]
    runner = _maintained(kind)
    before = _state(runner)
    with pytest.raises(ValidationError) as raised:
        runner.add_edges(edges)
    with pytest.raises(ValidationError) as expected:
        _chain()[0].with_edges_added(edges)
    assert str(raised.value) == str(expected.value)
    _assert_same_state(before, _state(runner))


#: FaBP takes one explicit scalar per node: ``Ê`` with a single column.
FABP_ENTRY_POINTS = {
    "fabp": lambda g, e: fabp(g, 0.1, e),
    "fabp-exact": lambda g, e: fabp(g, 0.1, e, variant="exact"),
    "fabp_batch": lambda g, e: fabp_batch(g, 0.1, [np.zeros(NUM_NODES), e]),
    "fabp_closed_form": lambda g, e: fabp_closed_form(g, 0.1, e),
}


@pytest.mark.parametrize("entry_point", list(FABP_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_fabp_scalars_are_refused(entry_point, value):
    graph = _chain()[0]
    scalars = np.zeros(NUM_NODES)
    scalars[0] = 0.1
    scalars[3] = value
    with pytest.raises(ValidationError,
                       match=f"belief value {value} for node 3 class 0 "
                             "is not finite"):
        FABP_ENTRY_POINTS[entry_point](graph, scalars)


@pytest.mark.parametrize("entry_point", list(FABP_ENTRY_POINTS))
def test_fabp_scalars_of_the_wrong_length_are_refused(entry_point):
    graph = _chain()[0]
    with pytest.raises(ValidationError, match="got shape"):
        FABP_ENTRY_POINTS[entry_point](graph, np.zeros(NUM_NODES - 1))


WARM_STARTS = {
    "run_batch": lambda g, c, e, start: run_batch(
        get_plan(g, c), [e], initial_beliefs=[start]),
    "LinBP.run": lambda g, c, e, start: LinBP(g, c).run(
        e, initial_beliefs=start),
}


@pytest.mark.parametrize("entry_point", list(WARM_STARTS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_initial_beliefs_are_refused(entry_point, value):
    graph, coupling, explicit = _chain()
    start = np.zeros_like(explicit)
    start[2, 0] = value
    with pytest.raises(ValidationError,
                       match="node 2 class 0 is not finite"):
        WARM_STARTS[entry_point](graph, coupling, explicit, start)


@pytest.mark.parametrize("entry_point", list(WARM_STARTS))
def test_initial_beliefs_of_the_wrong_shape_are_refused(entry_point):
    graph, coupling, explicit = _chain()
    with pytest.raises(ValidationError, match="initial beliefs must have"):
        WARM_STARTS[entry_point](graph, coupling, explicit,
                                 np.zeros((NUM_NODES, 2)))
