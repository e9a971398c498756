"""Tests for the pluggable SQL execution backends (selection, state, I/O).

The differential property suite (``tests/property``) proves the backends
compute the right numbers; this module covers everything around the
numbers: registry lookup and capability gating, the repro.exceptions
error surface, transaction rollback on mid-sweep failure, persistence and
reopening of disk-backed databases, and the out-of-core path that labels a
streamed graph without ever building a dense belief matrix in Python.
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
    UnknownBackendError,
    ValidationError,
)
from repro.graphs import Graph
from repro.relational import open_backend, run_propagation
from repro.relational.backends import (
    BACKENDS,
    available_backends,
    backend_info,
    get_backend,
)


@pytest.fixture
def problem():
    """A small weighted graph with a convergent coupling and two labels."""
    graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    coupling = CouplingMatrix.from_stochastic(
        np.array([[0.8, 0.2], [0.2, 0.8]]), epsilon=0.3)
    explicit = BeliefMatrix.from_labels({0: 0, 4: 1}, num_nodes=5,
                                        num_classes=2, magnitude=0.1)
    return graph, coupling, explicit.residuals


class TestRegistry:
    def test_sqlite_always_available(self):
        assert available_backends()[0] == "sqlite"
        assert set(BACKENDS) == {"sqlite", "duckdb"}

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("postgres")
        message = str(excinfo.value)
        for name in BACKENDS:
            assert name in message
        # Callers should also be able to catch it generically.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    def test_backend_info_reports_every_backend(self):
        report = {entry["name"]: entry for entry in backend_info()}
        assert set(report) == set(BACKENDS)
        assert report["sqlite"]["available"] is True
        assert "SQLite" in report["sqlite"]["engine"]

    def test_duckdb_missing_is_an_importerror_with_guidance(self, problem):
        if BACKENDS["duckdb"].is_available():
            pytest.skip("duckdb installed; the gating path cannot be hit")
        graph, coupling, explicit = problem
        backend = get_backend("duckdb")  # registry lookup must not import
        with pytest.raises(BackendUnavailableError) as excinfo:
            backend.connect()
        assert isinstance(excinfo.value, ImportError)
        assert "duckdb" in str(excinfo.value)
        assert "sqlite" in str(excinfo.value)  # points at the fallback

    def test_open_backend_is_the_engine_entry_point(self, problem):
        graph, coupling, explicit = problem
        with open_backend("sqlite") as backend:
            backend.load_graph(graph, coupling, explicit)
            result = backend.run_linbp()
        assert result.converged


class TestErrorSurface:
    @pytest.mark.parametrize("name", available_backends())
    def test_unloaded_backend_raises_state_error(self, name):
        backend = get_backend(name)
        with pytest.raises(BackendStateError):
            backend.run_linbp()
        with pytest.raises(BackendStateError):
            backend.run_sbp()
        with pytest.raises(BackendStateError):
            backend.fetch_beliefs()
        backend.close()

    @pytest.mark.parametrize("name", available_backends())
    def test_bad_explicit_shape_raises_validation_error(self, name, problem):
        graph, coupling, _ = problem
        with get_backend(name) as backend:
            with pytest.raises(ValidationError):
                backend.load_graph(graph, coupling, np.zeros((3, 2)))

    @pytest.mark.parametrize("name", available_backends())
    def test_bad_iteration_arguments(self, name, problem):
        graph, coupling, explicit = problem
        with get_backend(name) as backend:
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
            run_propagation(graph, coupling, explicit, method="bp",
                            backend="sqlite")

    def test_run_propagation_dispatches_all_methods(self, problem):
        graph, coupling, explicit = problem
        for method in ("linbp", "linbp*", "sbp"):
            result = run_propagation(graph, coupling, explicit,
                                     method=method, backend="sqlite")
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
        backend = get_backend("sqlite")
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
        backend = get_backend("sqlite")
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
        with get_backend("sqlite", database=path) as backend:
            backend.load_graph(graph, coupling, explicit)
            original = backend.run_linbp()
        # A brand-new backend over the same file needs no load_graph().
        with get_backend("sqlite", database=path) as reopened:
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
        with get_backend("sqlite", database=path) as backend:
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
        with get_backend("sqlite", database=path) as backend:
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
