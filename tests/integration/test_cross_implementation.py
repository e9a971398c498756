"""Cross-implementation consistency: matrix vs SQL, iterative vs closed form.

These are the end-to-end guarantees the library rests on: every implementation
of the same semantics must produce the same numbers, on non-trivial random
workloads, including after incremental updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import synthetic_residual_matrix
from repro.core import SBP, linbp, linbp_closed_form, sbp
from repro.datasets import sample_explicit_beliefs, sample_explicit_nodes
from repro.graphs import random_graph
from repro.relational import SQLiteBackend


def _sqlite(graph, coupling, explicit) -> SQLiteBackend:
    backend = SQLiteBackend().connect()
    backend.load_graph(graph, coupling, explicit)
    return backend


@pytest.fixture(scope="module", params=[0, 1])
def workload(request):
    """Two random workloads (different seeds, one weighted one not)."""
    seed = request.param
    weighted = seed == 1
    graph = random_graph(60, 0.08, seed=seed, weighted=weighted)
    nodes = sample_explicit_nodes(graph.num_nodes, 0.1, seed=seed + 50)
    explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes, seed=seed + 60)
    coupling = synthetic_residual_matrix(epsilon=0.3)
    return graph, coupling, explicit


class TestLinBPImplementations:
    def test_iterative_equals_closed_form(self, workload):
        graph, coupling, explicit = workload
        iterative = linbp(graph, coupling, explicit, max_iterations=500,
                          tolerance=1e-13)
        closed = linbp_closed_form(graph, coupling, explicit)
        assert iterative.converged
        assert np.allclose(iterative.beliefs, closed.beliefs, atol=1e-9)

    @pytest.mark.parametrize("echo", [True, False])
    def test_sql_equals_closed_form(self, workload, echo):
        graph, coupling, explicit = workload
        with _sqlite(graph, coupling, explicit) as backend:
            relational = backend.run_linbp(max_iterations=300,
                                           tolerance=1e-13,
                                           echo_cancellation=echo)
        closed = linbp_closed_form(graph, coupling, explicit,
                                   echo_cancellation=echo)
        assert relational.converged
        assert np.allclose(relational.beliefs, closed.beliefs, atol=1e-8)


class TestSBPImplementations:
    def test_matrix_equals_sql(self, workload):
        graph, coupling, explicit = workload
        matrix_result = sbp(graph, coupling, explicit)
        with _sqlite(graph, coupling, explicit) as backend:
            relational_result = backend.run_sbp()
        assert np.allclose(matrix_result.beliefs, relational_result.beliefs,
                           atol=1e-10)
        assert np.array_equal(matrix_result.extra["geodesic_numbers"],
                              relational_result.extra["geodesic_numbers"])

    def test_incremental_beliefs_all_engines_agree(self, workload):
        graph, coupling, explicit = workload
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        add = labeled[::2]
        initial = explicit.copy()
        initial[add] = 0.0
        update = np.zeros_like(explicit)
        update[add] = explicit[add]
        scratch = sbp(graph, coupling, explicit)

        memory_runner = SBP(graph, coupling)
        memory_runner.run(initial)
        memory_result = memory_runner.add_explicit_beliefs(update)

        with _sqlite(graph, coupling, initial) as backend:
            backend.run_sbp()
            relational_result = backend.add_explicit_beliefs(update)

        assert np.allclose(memory_result.beliefs, scratch.beliefs, atol=1e-10)
        assert np.allclose(relational_result.beliefs, scratch.beliefs, atol=1e-10)
        assert relational_result.extra["nodes_updated"] == \
            memory_result.extra["nodes_updated"]

    def test_incremental_edges_all_engines_agree(self, workload):
        graph, coupling, explicit = workload
        rng = np.random.default_rng(99)
        new_edges = []
        while len(new_edges) < 8:
            source, target = rng.integers(0, graph.num_nodes, size=2)
            if source != target and not graph.has_edge(int(source), int(target)):
                new_edges.append((int(source), int(target), 1.0))
        extended = graph.with_edges_added(new_edges)
        scratch = sbp(extended, coupling, explicit)

        memory_runner = SBP(graph, coupling)
        memory_runner.run(explicit)
        memory_result = memory_runner.add_edges(new_edges)

        with _sqlite(graph, coupling, explicit) as backend:
            backend.run_sbp()
            relational_result = backend.add_edges(new_edges)

        assert np.allclose(memory_result.beliefs, scratch.beliefs, atol=1e-10)
        assert np.allclose(relational_result.beliefs, scratch.beliefs, atol=1e-10)
        assert relational_result.extra["nodes_updated"] == \
            memory_result.extra["nodes_updated"]


class TestTheorem19OnRandomGraphs:
    def test_linbp_standardized_beliefs_approach_sbp(self, workload):
        """Theorem 19: standardized LinBP → standardized SBP as ε_H → 0."""
        graph, coupling, explicit = workload
        sbp_std = sbp(graph, coupling, explicit).standardized_beliefs()
        deviations = []
        for epsilon in (1e-2, 1e-3, 1e-4):
            result = linbp(graph, coupling.scaled(epsilon), explicit,
                           max_iterations=300)
            lin_std = result.standardized_beliefs()
            # Only compare nodes that SBP reaches (others stay zero everywhere).
            reached = np.any(sbp_std != 0.0, axis=1)
            deviations.append(np.max(np.abs(lin_std[reached] - sbp_std[reached])))
        assert deviations[1] < deviations[0]
        assert deviations[2] < 0.05
