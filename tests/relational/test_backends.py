"""Tests for the SQLite execution backend (gating, state, I/O).

The differential property suite (``tests/property``) proves the backend
computes the right numbers; this module covers everything around the
numbers: the SQLite version gate, the repro.exceptions error surface,
transaction rollback on mid-sweep failure, persistence and reopening of
disk-backed databases, and the out-of-core path that labels a streamed
graph without ever building a dense belief matrix in Python.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import BeliefMatrix
from repro.coupling.matrices import CouplingMatrix
from repro.engine.batch import run_batch
from repro.engine.plan import get_plan
from repro.exceptions import (
    BackendStateError,
    BackendUnavailableError,
    ReproError,
    ValidationError,
)
from repro.graphs import Graph
from repro.relational import SQLiteBackend, run_propagation


@pytest.fixture
def problem():
    """A small weighted graph with a convergent coupling and two labels."""
    graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    coupling = CouplingMatrix.from_stochastic(
        np.array([[0.8, 0.2], [0.2, 0.8]]), epsilon=0.3)
    explicit = BeliefMatrix.from_labels({0: 0, 4: 1}, num_nodes=5,
                                        num_classes=2, magnitude=0.1)
    return graph, coupling, explicit.residuals


class TestVersionGate:
    def test_old_sqlite_is_refused_on_connect(self, monkeypatch):
        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 32, 3))
        backend = SQLiteBackend()
        with pytest.raises(BackendUnavailableError) as excinfo:
            backend.connect()
        assert isinstance(excinfo.value, ReproError)
        assert "3.33" in str(excinfo.value)
        assert "UPDATE ... FROM" in str(excinfo.value)


class TestErrorSurface:
    def test_unloaded_backend_raises_state_error(self):
        backend = SQLiteBackend()
        with pytest.raises(BackendStateError):
            backend.run_linbp()
        with pytest.raises(BackendStateError):
            backend.run_sbp()
        with pytest.raises(BackendStateError):
            backend.fetch_beliefs()
        backend.close()

    def test_bad_explicit_shape_raises_validation_error(self, problem):
        graph, coupling, _ = problem
        with SQLiteBackend() as backend:
            with pytest.raises(ValidationError):
                backend.load_graph(graph, coupling, np.zeros((3, 2)))

    def test_bad_iteration_arguments(self, problem):
        graph, coupling, explicit = problem
        with SQLiteBackend() as backend:
            backend.load_graph(graph, coupling, explicit)
            with pytest.raises(ValidationError):
                backend.run_linbp(max_iterations=0)
            with pytest.raises(ValidationError):
                backend.run_linbp(tolerance=0.0)
            with pytest.raises(ValidationError):
                backend.run_linbp(num_iterations=0)

    def test_run_propagation_rejects_unknown_method(self, problem):
        graph, coupling, explicit = problem
        with pytest.raises(ValidationError):
            run_propagation(graph, coupling, explicit, method="bp")

    def test_run_propagation_dispatches_all_methods(self, problem):
        graph, coupling, explicit = problem
        for method in ("linbp", "linbp*", "sbp"):
            result = run_propagation(graph, coupling, explicit,
                                     method=method)
            assert result.beliefs.shape == (5, 2)


class _FailingCursor:
    """Proxy that raises once a chosen statement has run ``fail_at`` times."""

    def __init__(self, cursor, state):
        self._cursor = cursor
        self._state = state

    def execute(self, sql, parameters=()):
        if sql.lstrip().startswith("UPDATE beliefs"):
            self._state["updates"] += 1
            if self._state["updates"] >= self._state["fail_at"]:
                raise sqlite3.OperationalError("synthetic mid-sweep failure")
        return self._cursor.execute(sql, parameters)

    def __getattr__(self, name):
        return getattr(self._cursor, name)


class TestTransactions:
    def test_mid_sweep_failure_rolls_back_to_previous_state(self, problem,
                                                            monkeypatch):
        """A sweep that dies mid-iteration must not leave partial beliefs."""
        graph, coupling, explicit = problem
        backend = SQLiteBackend()
        backend.load_graph(graph, coupling, explicit)
        first = backend.run_linbp()
        before = backend.fetch_beliefs()
        # Fail the *second* UPDATE of the next run: iteration one commits
        # nothing (the run is a single transaction), so the database must
        # come back exactly as the first run left it.
        state = {"updates": 0, "fail_at": 2}
        real_cursor = backend._cursor
        monkeypatch.setattr(
            backend, "_cursor",
            lambda: _FailingCursor(real_cursor(), state))
        with pytest.raises(sqlite3.OperationalError):
            backend.run_linbp()
        monkeypatch.undo()
        after = backend.fetch_beliefs()
        np.testing.assert_array_equal(after, before)
        # The backend stays usable: a fresh run succeeds and agrees.
        again = backend.run_linbp()
        assert again.converged
        np.testing.assert_allclose(again.beliefs, first.beliefs,
                                   rtol=0, atol=1e-12)
        backend.close()

    def test_failed_load_leaves_previous_graph_intact(self, problem,
                                                      monkeypatch):
        graph, coupling, explicit = problem
        backend = SQLiteBackend()
        backend.load_graph(graph, coupling, explicit)
        counts_before = backend.table_counts()

        def broken_edges():
            yield (0, 1, 1.0)
            raise RuntimeError("stream died")

        with pytest.raises(RuntimeError):
            backend.load_stream(broken_edges(), [], coupling, graph.num_nodes)
        assert backend.table_counts() == counts_before
        assert backend.run_linbp().converged
        backend.close()


class TestPersistence:
    def test_reopening_a_persisted_database_restores_state(self, problem,
                                                           tmp_path):
        graph, coupling, explicit = problem
        path = str(tmp_path / "graph.db")
        with SQLiteBackend(path) as backend:
            backend.load_graph(graph, coupling, explicit)
            original = backend.run_linbp()
        # A brand-new backend over the same file needs no load_graph().
        with SQLiteBackend(path) as reopened:
            assert reopened.is_loaded
            assert reopened.num_nodes == graph.num_nodes
            assert reopened.num_classes == coupling.num_classes
            np.testing.assert_array_equal(reopened.fetch_beliefs(),
                                          original.beliefs)
            rerun = reopened.run_linbp()
        assert rerun.iterations == original.iterations
        np.testing.assert_allclose(rerun.beliefs, original.beliefs,
                                   rtol=0, atol=1e-12)

    def test_reopening_an_empty_database_is_not_loaded(self, tmp_path):
        path = str(tmp_path / "empty.db")
        sqlite3.connect(path).close()
        with SQLiteBackend(path) as backend:
            assert not backend.is_loaded
            with pytest.raises(BackendStateError):
                backend.run_linbp()


class TestOutOfCore:
    def test_streamed_graph_labels_without_dense_beliefs(self, problem,
                                                         tmp_path):
        """The out-of-core demo: stream edges to disk, label via SQL only.

        The graph goes into an on-disk SQLite database through generator
        streams (never an in-memory Graph on the backend side), the sweep
        runs with ``materialize=False`` (no dense ``n × k`` ndarray is ever
        fetched), and the labels come back through the in-database argmax
        query.  They must equal the dense engine's ``hard_labels()``.
        """
        graph, coupling, explicit = problem
        reference = run_batch(get_plan(graph, coupling), [explicit])[0]
        expected = {node: int(label)
                    for node, label in enumerate(reference.hard_labels())
                    if label >= 0}

        def edge_stream():
            for edge in graph.edges():
                yield edge.source, edge.target, edge.weight

        def explicit_stream():
            for node, row in enumerate(explicit):
                if np.any(row != 0.0):
                    for cls, value in enumerate(row):
                        yield node, cls, float(value)

        path = str(tmp_path / "streamed.db")
        with SQLiteBackend(path) as backend:
            backend.load_stream(edge_stream(), explicit_stream(), coupling,
                                graph.num_nodes)
            result = backend.run_linbp(materialize=False)
            assert result.beliefs.shape == (0, coupling.num_classes)
            assert result.converged == reference.converged
            assert result.iterations == reference.iterations
            assert dict(backend.top_labels()) == expected
            streamed = {(v, c): b for v, c, b in backend.iter_beliefs()}
        for (node, cls), belief in streamed.items():
            assert abs(belief - reference.beliefs[node, cls]) < 1e-10
