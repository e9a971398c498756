"""Equivalence and behaviour tests for the batched engine (repro.engine.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import fraud_matrix, homophily_matrix, synthetic_residual_matrix
from repro.core import fabp, fabp_batch, linbp, linbp_star
from repro.core.fabp import binary_coupling
from repro.engine import BatchWorkspace, clear_plan_cache, get_plan, run_batch
from repro.exceptions import NotConvergentParametersError, ValidationError
from repro.graphs import Graph, chain_graph, random_graph, torus_graph


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _workload(num_queries: int, num_nodes: int = 40, seed: int = 11):
    graph = random_graph(num_nodes, 0.12, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.05)
    rng = np.random.default_rng(seed)
    explicit_list = []
    for _ in range(num_queries):
        explicit = np.zeros((graph.num_nodes, 3))
        for node in rng.choice(graph.num_nodes, size=6, replace=False):
            values = rng.uniform(-0.1, 0.1, size=2)
            explicit[node] = [values[0], values[1], -values.sum()]
        explicit_list.append(explicit)
    return graph, coupling, explicit_list


class TestBatchSequentialEquivalence:
    def test_beliefs_match_sequential_linbp_to_1e10(self):
        graph, coupling, explicit_list = _workload(10)
        plan = get_plan(graph, coupling)
        batched = run_batch(plan, explicit_list)
        for explicit, batch_result in zip(explicit_list, batched):
            sequential = linbp(graph, coupling, explicit)
            assert np.abs(batch_result.beliefs - sequential.beliefs).max() < 1e-10
            assert batch_result.iterations == sequential.iterations
            assert batch_result.converged == sequential.converged
            assert batch_result.residual_history == \
                pytest.approx(sequential.residual_history, abs=1e-12)

    def test_beliefs_match_sequential_linbp_star(self):
        graph, coupling, explicit_list = _workload(5)
        plan = get_plan(graph, coupling, echo_cancellation=False)
        batched = run_batch(plan, explicit_list)
        for explicit, batch_result in zip(explicit_list, batched):
            sequential = linbp_star(graph, coupling, explicit)
            assert np.abs(batch_result.beliefs - sequential.beliefs).max() < 1e-10
            assert batch_result.method == "LinBP*"

    def test_batch_matches_fabp_closed_form_to_1e10(self):
        graph = random_graph(30, 0.15, seed=3)
        h = 0.02  # well inside the convergence region of this graph
        rng = np.random.default_rng(5)
        explicit_scalars = [rng.uniform(-0.1, 0.1, graph.num_nodes)
                            for _ in range(4)]
        # Iterative engine on the k = 2 coupling [[h, -h], [-h, h]] ...
        plan = get_plan(graph, binary_coupling(h))
        stacked = [np.column_stack([e, -e]) for e in explicit_scalars]
        batched = run_batch(plan, stacked, tolerance=1e-14, max_iterations=1000)
        # ... must agree with FaBP's direct solve of the same linear system.
        for scalars, batch_result in zip(explicit_scalars, batched):
            direct = fabp(graph, h, scalars, variant="linbp")
            assert batch_result.converged
            assert np.abs(batch_result.beliefs - direct.beliefs).max() < 1e-10

    def test_fabp_batch_matches_sequential_fabp(self):
        graph = random_graph(30, 0.15, seed=3)
        rng = np.random.default_rng(6)
        explicit_scalars = [rng.uniform(-0.2, 0.2, graph.num_nodes)
                            for _ in range(6)]
        for variant in ("linbp", "exact"):
            batched = fabp_batch(graph, 0.03, explicit_scalars, variant=variant)
            assert len(batched) == len(explicit_scalars)
            for scalars, batch_result in zip(explicit_scalars, batched):
                sequential = fabp(graph, 0.03, scalars, variant=variant)
                assert np.abs(batch_result.beliefs
                              - sequential.beliefs).max() < 1e-10
                assert batch_result.method == sequential.method

    def test_heterogeneous_convergence_freezes_each_query(self):
        # Queries with very different magnitudes converge at different
        # iterations; each must match its own sequential run exactly.
        # The coupling keeps the radius below the CG crossover, so Jacobi
        # sweeps answer (test_batch_cg.py holds CG to the same checks).
        graph = chain_graph(12)
        coupling = homophily_matrix(epsilon=0.2)
        explicit_list = []
        for scale in (1e-6, 1.0, 1e4):
            explicit = np.zeros((12, 2))
            explicit[0] = [scale, -scale]
            explicit[11] = [-scale, scale]
            explicit_list.append(explicit)
        batched = run_batch(get_plan(graph, coupling), explicit_list,
                            max_iterations=500)
        iteration_counts = set()
        for explicit, batch_result in zip(explicit_list, batched):
            sequential = linbp(graph, coupling, explicit, max_iterations=500)
            assert batch_result.iterations == sequential.iterations
            assert np.abs(batch_result.beliefs - sequential.beliefs).max() <= \
                1e-10 * max(1.0, np.abs(sequential.beliefs).max())
            iteration_counts.add(batch_result.iterations)
            assert batch_result.extra["solver"] == "jacobi"
        assert len(iteration_counts) > 1  # the scenario really is heterogeneous


class TestBatchBehaviour:
    def test_empty_batch_returns_empty_list(self):
        graph, coupling, _ = _workload(1)
        assert run_batch(get_plan(graph, coupling), []) == []

    def test_fixed_iteration_budget(self):
        graph, coupling, explicit_list = _workload(3)
        batched = run_batch(get_plan(graph, coupling), explicit_list,
                            num_iterations=5)
        for explicit, batch_result in zip(explicit_list, batched):
            sequential = linbp(graph, coupling, explicit, num_iterations=5)
            assert batch_result.iterations == 5
            assert len(batch_result.residual_history) == 5
            assert np.abs(batch_result.beliefs - sequential.beliefs).max() < 1e-10

    def test_initial_beliefs_reach_the_same_fixed_point(self):
        graph, coupling, explicit_list = _workload(2)
        starts = [None, np.full((graph.num_nodes, 3), 0.01)]
        batched = run_batch(get_plan(graph, coupling), explicit_list,
                            initial_beliefs=starts)
        plain = run_batch(get_plan(graph, coupling), explicit_list)
        for with_start, zero_start in zip(batched, plain):
            assert np.allclose(with_start.beliefs, zero_start.beliefs, atol=1e-8)

    def test_require_convergence_uses_lemma8(self):
        graph = torus_graph()
        diverging = fraud_matrix(epsilon=10.0)
        explicit = np.zeros((graph.num_nodes, 3))
        explicit[0] = [0.2, -0.1, -0.1]
        with pytest.raises(NotConvergentParametersError):
            run_batch(get_plan(graph, diverging), [explicit],
                      require_convergence=True)

    def test_batch_extra_metadata(self):
        graph, coupling, explicit_list = _workload(4)
        batched = run_batch(get_plan(graph, coupling), explicit_list)
        for batch_result in batched:
            assert batch_result.extra["engine"] == "batch"
            assert batch_result.extra["batch_size"] == 4
            assert batch_result.extra["epsilon"] == coupling.epsilon

    def test_workspace_reuse_across_batches(self):
        graph, coupling, explicit_list = _workload(3)
        plan = get_plan(graph, coupling)
        workspace = BatchWorkspace(plan, 3)
        first = run_batch(plan, explicit_list, workspace=workspace)
        second = run_batch(plan, explicit_list, workspace=workspace)
        for a, b in zip(first, second):
            assert np.array_equal(a.beliefs, b.beliefs)

    def test_workspace_width_mismatch_is_rejected(self):
        graph, coupling, explicit_list = _workload(3)
        plan = get_plan(graph, coupling)
        workspace = BatchWorkspace(plan, 2)
        with pytest.raises(ValidationError):
            run_batch(plan, explicit_list, workspace=workspace)

    def test_shape_validation(self):
        graph, coupling, explicit_list = _workload(1)
        plan = get_plan(graph, coupling)
        with pytest.raises(ValidationError):
            run_batch(plan, [explicit_list[0][:, :2]])
        with pytest.raises(ValidationError):
            run_batch(plan, [explicit_list[0][:-1]])
        with pytest.raises(ValidationError):
            run_batch(plan, explicit_list, max_iterations=0)
        with pytest.raises(ValidationError):
            run_batch(plan, explicit_list, tolerance=0.0)

    def test_empty_graph_batch(self):
        graph = Graph.empty(4)
        coupling = homophily_matrix(epsilon=0.1)
        explicit = np.zeros((4, 2))
        result = run_batch(get_plan(graph, coupling), [explicit])[0]
        assert result.converged
        assert np.array_equal(result.beliefs, explicit)
