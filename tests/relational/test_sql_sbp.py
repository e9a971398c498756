"""SBP and ΔSBP (Algorithms 2-4) on every available SQL backend.

Each test runs on every backend :func:`available_backends` reports (SQLite
always, DuckDB when installed) and compares with the in-memory engines:
beliefs to 1e-10, geodesic numbers exactly, and — for the incremental
updates — the same ``nodes_updated`` as :class:`repro.core.sbp.SBP`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SBP
from repro.coupling import homophily_matrix, synthetic_residual_matrix
from repro.datasets import (
    kronecker_suite,
    sample_explicit_beliefs,
    sample_explicit_nodes,
)
from repro.engine.batch import run_batch
from repro.engine.plan import get_plan
from repro.engine.sbp_plan import run_sbp_batch
from repro.exceptions import BackendStateError, ValidationError
from repro.graphs import Graph, chain_graph, random_graph
from repro.relational import available_backends, get_backend
from repro.relational.backends.base import _TABLES

TOLERANCE = 1e-10


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


def _sbp_backend(name, graph, coupling, explicit, database=":memory:"):
    """A connected backend holding the SBP result of ``explicit``."""
    backend = get_backend(name, database=database).connect()
    backend.load_graph(graph, coupling, explicit)
    backend.run_sbp()
    return backend


def _memory_sbp(graph, coupling, explicit) -> SBP:
    """The in-memory runner ΔSBP results are compared with."""
    runner = SBP(graph, coupling)
    runner.run(explicit)
    return runner


def _assert_same(result, reference, nodes_updated=True):
    np.testing.assert_allclose(result.beliefs, reference.beliefs, rtol=0,
                               atol=TOLERANCE)
    assert np.array_equal(result.extra["geodesic_numbers"],
                          reference.extra["geodesic_numbers"])
    if nodes_updated:
        assert result.extra["nodes_updated"] == \
            reference.extra["nodes_updated"]


def _dump(backend):
    """Every row of every table, for unchanged-state checks."""
    return {table: sorted(backend._execute(f"SELECT * FROM {table}")
                          .fetchall())
            for table in _TABLES}


def _new_edges(graph, count, seed):
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < count:
        source, target = (int(node) for node in
                          rng.integers(0, graph.num_nodes, size=2))
        if source != target and not graph.has_edge(source, target) \
                and (source, target) not in edges:
            edges.append((source, target))
    return edges


@pytest.fixture(params=[0, 1], ids=["unweighted", "weighted"])
def workload(request):
    """A 60-node random graph with 10 % labeled nodes."""
    seed = request.param
    graph = random_graph(60, 0.08, seed=seed, weighted=bool(seed))
    nodes = sample_explicit_nodes(graph.num_nodes, 0.1, seed=seed + 50)
    explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes,
                                       seed=seed + 60)
    return graph, synthetic_residual_matrix(epsilon=0.3), explicit


class TestSBP:
    """Algorithm 2, level by level, against run_sbp_batch."""

    def _check(self, name, graph, coupling, explicit):
        reference = run_sbp_batch(graph, coupling, [explicit])[0]
        with get_backend(name) as backend:
            backend.load_graph(graph, coupling, explicit)
            result = backend.run_sbp()
        _assert_same(result, reference, nodes_updated=False)
        assert result.iterations == reference.iterations
        return result

    def test_torus(self, backend_name, torus, fraud_coupling, torus_explicit):
        result = self._check(backend_name, torus, fraud_coupling,
                             torus_explicit)
        geodesic = result.extra["geodesic_numbers"]
        assert geodesic[0] == 0 and geodesic[3] == 3 and geodesic[7] == 2

    def test_weighted_graph(self, backend_name):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        explicit = np.array([[0.1, -0.1], [0.0, 0.0], [0.0, 0.0]])
        self._check(backend_name, graph, homophily_matrix(epsilon=0.2),
                    explicit)

    def test_unreachable_nodes_stay_zero(self, backend_name):
        graph = Graph.from_edges([(0, 1)], num_nodes=4)
        explicit = np.zeros((4, 2))
        explicit[0] = [0.1, -0.1]
        result = self._check(backend_name, graph,
                             homophily_matrix(epsilon=0.2), explicit)
        assert list(result.extra["geodesic_numbers"]) == [0, 1, -1, -1]
        assert np.all(result.beliefs[2:] == 0.0)

    def test_no_labels(self, backend_name):
        result = self._check(backend_name, chain_graph(3), homophily_matrix(),
                             np.zeros((3, 2)))
        assert result.iterations == 0

    def test_chain_with_hundreds_of_levels(self, backend_name):
        """A 2,000-node chain labeled at one end: 1,999 levels."""
        explicit = np.zeros((2000, 3))
        explicit[0] = [0.1, -0.05, -0.05]
        result = self._check(backend_name, chain_graph(2000),
                             synthetic_residual_matrix(epsilon=0.5), explicit)
        assert result.iterations == 1999

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_kronecker_suite(self, backend_name, index):
        workload = kronecker_suite(max_index=index, seed=0)[index - 1]
        self._check(backend_name, workload.graph,
                    workload.coupling.scaled(0.001), workload.explicit)


class TestAddExplicitBeliefs:
    """Algorithm 3 against SBP.add_explicit_beliefs and a fresh run."""

    @staticmethod
    def _split(explicit, stride):
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        add = labeled[::stride]
        initial = explicit.copy()
        initial[add] = 0.0
        update = np.zeros_like(explicit)
        update[add] = explicit[add]
        return initial, update

    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_matches_memory_runner_and_recomputation(self, backend_name,
                                                     workload, stride):
        graph, coupling, explicit = workload
        initial, update = self._split(explicit, stride)
        reference = _memory_sbp(graph, coupling, initial) \
            .add_explicit_beliefs(update)
        backend = _sbp_backend(backend_name, graph, coupling, initial)
        result = backend.add_explicit_beliefs(update)
        _assert_same(result, reference)
        np.testing.assert_allclose(backend.fetch_beliefs(), result.beliefs,
                                   rtol=0, atol=0)
        assert np.array_equal(backend.fetch_geodesic_numbers(),
                              result.extra["geodesic_numbers"])
        scratch = run_sbp_batch(graph, coupling, [explicit])[0]
        _assert_same(result, scratch, nodes_updated=False)
        backend.close()

    def test_changing_an_existing_label(self, backend_name):
        graph, coupling = chain_graph(5), homophily_matrix(epsilon=0.2)
        explicit = np.zeros((5, 2))
        explicit[0] = [0.1, -0.1]
        update = np.zeros((5, 2))
        update[0] = [-0.1, 0.1]
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        result = backend.add_explicit_beliefs(update)
        _assert_same(result, _memory_sbp(graph, coupling, explicit)
                     .add_explicit_beliefs(update))
        _assert_same(result, run_sbp_batch(graph, coupling, [update])[0],
                     nodes_updated=False)
        # The explicit relation holds the new label: a fresh run agrees.
        _assert_same(backend.run_sbp(), result, nodes_updated=False)
        backend.close()

    def test_local_update_touches_part_of_the_graph(self, backend_name,
                                                    workload):
        graph, coupling, explicit = workload
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        initial = explicit.copy()
        initial[labeled[-1]] = 0.0
        update = np.zeros_like(explicit)
        update[labeled[-1]] = explicit[labeled[-1]]
        backend = _sbp_backend(backend_name, graph, coupling, initial)
        result = backend.add_explicit_beliefs(update)
        assert 0 < result.extra["nodes_updated"] < graph.num_nodes
        _assert_same(result, _memory_sbp(graph, coupling, initial)
                     .add_explicit_beliefs(update))
        backend.close()

    def test_empty_update_is_a_noop(self, backend_name, workload):
        graph, coupling, explicit = workload
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        before = _dump(backend)
        result = backend.add_explicit_beliefs(np.zeros_like(explicit))
        assert result.extra["nodes_updated"] == 0
        assert _dump(backend) == before
        backend.close()

    def test_shape_checked_before_anything_is_written(self, backend_name,
                                                      workload):
        graph, coupling, explicit = workload
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        before = _dump(backend)
        with pytest.raises(ValidationError):
            backend.add_explicit_beliefs(np.zeros((3, 3)))
        assert _dump(backend) == before
        backend.close()


class TestAddEdges:
    """Algorithm 4 against SBP.add_edges and a fresh run."""

    def test_matches_memory_runner_and_recomputation(self, backend_name,
                                                     workload):
        graph, coupling, explicit = workload
        new_edges = _new_edges(graph, 8, seed=99)
        reference = _memory_sbp(graph, coupling, explicit).add_edges(new_edges)
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        result = backend.add_edges(new_edges)
        _assert_same(result, reference)
        grown = graph.with_edges_added(new_edges)
        _assert_same(result, run_sbp_batch(grown, coupling, [explicit])[0],
                     nodes_updated=False)
        backend.close()

    def test_connecting_a_new_component(self, backend_name):
        graph = Graph.from_edges([(0, 1), (2, 3)], num_nodes=4)
        coupling = homophily_matrix(epsilon=0.2)
        explicit = np.zeros((4, 2))
        explicit[0] = [0.1, -0.1]
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        result = backend.add_edges([(1, 2)])
        assert list(result.extra["geodesic_numbers"]) == [0, 1, 2, 3]
        _assert_same(result, _memory_sbp(graph, coupling, explicit)
                     .add_edges([(1, 2)]))
        _assert_same(result, run_sbp_batch(graph.with_edges_added([(1, 2)]),
                                           coupling, [explicit])[0],
                     nodes_updated=False)
        backend.close()

    @pytest.mark.parametrize("edges", [[(1, 2, 2.0)], [(0, 1, 0.5), (1, 2)]],
                             ids=["new-weighted", "existing-pair-adds-up"])
    def test_weights(self, backend_name, edges):
        graph = Graph.from_edges([(0, 1)], num_nodes=3)
        coupling = homophily_matrix(epsilon=0.2)
        explicit = np.zeros((3, 2))
        explicit[0] = [0.1, -0.1]
        reference = _memory_sbp(graph, coupling, explicit).add_edges(edges)
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        _assert_same(backend.add_edges(edges), reference)
        backend.close()

    def test_linbp_after_add_edges_sweeps_the_grown_graph(self, backend_name,
                                                          workload):
        """The edges and degrees rows follow the grown graph."""
        graph, coupling, explicit = workload
        new_edges = _new_edges(graph, 8, seed=5) + [(0, 1, 1.5), (0, 1)]
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        backend.add_edges(new_edges)
        grown = graph.with_edges_added(new_edges)
        for echo in (True, False):
            reference = run_batch(
                get_plan(grown, coupling, echo_cancellation=echo), [explicit],
                max_iterations=200, tolerance=TOLERANCE)[0]
            result = backend.run_linbp(max_iterations=200,
                                       tolerance=TOLERANCE,
                                       echo_cancellation=echo)
            np.testing.assert_allclose(result.beliefs, reference.beliefs,
                                       rtol=0, atol=TOLERANCE)
        backend.close()

    def test_empty_update_is_a_noop(self, backend_name, workload):
        graph, coupling, explicit = workload
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        before = _dump(backend)
        assert backend.add_edges([]).extra["nodes_updated"] == 0
        assert _dump(backend) == before
        backend.close()

    @pytest.mark.parametrize("bad_edges", [
        [(2, 5), (7, 7)],          # a self-loop after a valid edge
        [(1, 2), (3, 600)],        # a node id beyond the graph
        [(1, 2, -1.0)],            # a non-positive weight
    ], ids=["self-loop", "out-of-range", "negative-weight"])
    def test_rejected_update_leaves_every_table_unchanged(
            self, backend_name, workload, bad_edges):
        graph, coupling, explicit = workload
        backend = _sbp_backend(backend_name, graph, coupling, explicit)
        before = _dump(backend)
        with pytest.raises(ValidationError) as expected:
            graph.with_edges_added(bad_edges)
        with pytest.raises(ValidationError) as raised:
            backend.add_edges(bad_edges)
        assert str(raised.value) == str(expected.value)
        assert _dump(backend) == before
        backend.close()


class TestUpdateChains:
    def test_mixed_updates_match_a_fresh_run(self, backend_name, workload):
        """Label and edge updates interleaved, then one fresh run_sbp."""
        graph, coupling, explicit = workload
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        initial = explicit.copy()
        initial[labeled[::2]] = 0.0
        rng = np.random.default_rng(7)
        relabel = np.zeros_like(explicit)
        relabel[labeled[1]] = -explicit[labeled[1]]
        fresh_labels = np.zeros_like(explicit)
        for node in rng.choice(graph.num_nodes, size=3, replace=False):
            fresh_labels[node] = [0.1, -0.05, -0.05]
        first_half = np.zeros_like(explicit)
        first_half[labeled[::2]] = explicit[labeled[::2]]
        steps = [("labels", first_half),
                 ("edges", _new_edges(graph, 5, seed=1)),
                 ("labels", relabel),
                 ("edges", _new_edges(graph, 4, seed=2)),
                 ("labels", fresh_labels)]
        memory = _memory_sbp(graph, coupling, initial)
        backend = _sbp_backend(backend_name, graph, coupling, initial)
        final_graph, final_explicit = graph, initial.copy()
        for kind, update in steps:
            if kind == "labels":
                reference = memory.add_explicit_beliefs(update)
                result = backend.add_explicit_beliefs(update)
                rows = np.any(update != 0.0, axis=1)
                final_explicit[rows] = update[rows]
            else:
                reference = memory.add_edges(update)
                result = backend.add_edges(update)
                final_graph = final_graph.with_edges_added(update)
            _assert_same(result, reference)
        with get_backend(backend_name) as fresh:
            fresh.load_graph(final_graph, coupling, final_explicit)
            _assert_same(result, fresh.run_sbp(), nodes_updated=False)
        _assert_same(backend.run_sbp(), result, nodes_updated=False)
        backend.close()


class TestState:
    def test_updates_need_an_sbp_result(self, backend_name, workload):
        graph, coupling, explicit = workload
        with get_backend(backend_name) as backend:
            with pytest.raises(BackendStateError):
                backend.add_explicit_beliefs(explicit)
            backend.load_graph(graph, coupling, explicit)
            for run in (lambda: None, backend.run_linbp):
                run()
                with pytest.raises(BackendStateError, match="run_sbp"):
                    backend.add_explicit_beliefs(explicit)
                with pytest.raises(BackendStateError, match="run_sbp"):
                    backend.add_edges([(0, 1)])
            backend.run_sbp()
            assert backend.add_edges([]).extra["nodes_updated"] == 0

    def test_update_on_a_reopened_database(self, backend_name, workload,
                                           tmp_path):
        """ΔSBP continues from an SBP result persisted on disk."""
        graph, coupling, explicit = workload
        path = str(tmp_path / f"sbp.{backend_name}")
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        initial = explicit.copy()
        initial[labeled[:2]] = 0.0
        update = np.zeros_like(explicit)
        update[labeled[:2]] = explicit[labeled[:2]]
        new_edges = _new_edges(graph, 4, seed=3)
        _sbp_backend(backend_name, graph, coupling, initial,
                     database=path).close()
        memory = _memory_sbp(graph, coupling, initial)
        with get_backend(backend_name, database=path) as reopened:
            assert reopened.last_run == "sbp"
            _assert_same(reopened.add_explicit_beliefs(update),
                         memory.add_explicit_beliefs(update))
        with get_backend(backend_name, database=path) as reopened:
            _assert_same(reopened.add_edges(new_edges),
                         memory.add_edges(new_edges))
