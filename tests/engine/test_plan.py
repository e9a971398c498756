"""Unit tests for the propagation-plan cache (repro.engine.plan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import fraud_matrix, homophily_matrix
from repro.engine import (
    PropagationPlan,
    clear_plan_cache,
    get_binary_solver,
    get_plan,
    plan_cache_info,
)
from repro.graphs import chain_graph, random_graph, torus_graph
from repro.graphs import linalg


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanArtifacts:
    def test_plan_precomputes_canonical_artifacts(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        plan = PropagationPlan(graph, coupling)
        assert plan.adjacency.dtype == np.float64
        assert plan.adjacency.has_canonical_format
        assert np.allclose(plan.degrees, graph.degree_vector())
        assert np.allclose(plan.residual, coupling.residual)
        assert np.allclose(plan.residual_squared,
                           coupling.residual @ coupling.residual)
        assert plan.num_nodes == graph.num_nodes
        assert plan.num_classes == coupling.num_classes
        assert plan.method_name == "LinBP"

    def test_star_plan_has_no_degrees(self):
        plan = PropagationPlan(torus_graph(), fraud_matrix(epsilon=0.1),
                               echo_cancellation=False)
        assert plan.degrees is None
        assert plan.method_name == "LinBP*"

    def test_lemma8_radius_matches_direct_computation(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        plan = get_plan(graph, coupling)
        direct = linalg.kron_spectral_radius(coupling.residual, graph.adjacency,
                                             degree=graph.degree_matrix())
        assert plan.update_spectral_radius() == pytest.approx(direct)
        assert plan.is_exactly_convergent() == (direct < 1.0)

    def test_star_radius_is_product_of_radii(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        plan = get_plan(graph, coupling, echo_cancellation=False)
        expected = coupling.spectral_radius() * graph.spectral_radius()
        assert plan.update_spectral_radius() == pytest.approx(expected)


class TestPlanCache:
    def test_same_configuration_returns_same_plan(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        assert get_plan(graph, coupling) is get_plan(graph, coupling)
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_equal_coupling_values_share_a_plan(self):
        graph = torus_graph()
        first = get_plan(graph, fraud_matrix(epsilon=0.1))
        second = get_plan(graph, fraud_matrix(epsilon=0.1))
        assert first is second

    def test_scaling_epsilon_invalidates_the_cached_plan(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        stale = get_plan(graph, coupling)
        rescaled = coupling.scaled(0.05)
        fresh = get_plan(graph, rescaled)
        assert fresh is not stale
        assert np.allclose(fresh.residual, rescaled.residual)
        assert np.allclose(fresh.residual_squared,
                           rescaled.residual @ rescaled.residual)
        # The original scale still resolves to its own (cached) plan.
        assert get_plan(graph, coupling) is stale

    def test_echo_flag_is_part_of_the_key(self):
        graph = torus_graph()
        coupling = fraud_matrix(epsilon=0.1)
        assert get_plan(graph, coupling, echo_cancellation=True) is not \
            get_plan(graph, coupling, echo_cancellation=False)

    def test_different_graphs_do_not_share_plans(self):
        coupling = homophily_matrix(epsilon=0.1)
        plan_a = get_plan(chain_graph(5), coupling)
        plan_b = get_plan(chain_graph(5), coupling)
        assert plan_a is not plan_b  # identity keying, not value keying

    def test_plan_is_evicted_when_its_graph_dies(self):
        import gc
        coupling = homophily_matrix(epsilon=0.1)
        graph = chain_graph(5)
        plan = get_plan(graph, coupling)
        assert plan_cache_info()["size"] == 1
        assert plan.graph is graph
        del graph
        gc.collect()
        # The cache holds no strong reference to the graph wrapper: the
        # entry disappears and the plan's weak graph handle goes dark,
        # while the plan's own artifacts stay usable.
        assert plan_cache_info()["size"] == 0
        assert plan.graph is None
        assert plan.adjacency.shape == (5, 5)

    def test_cache_is_bounded(self):
        from repro.engine import plan as plan_module
        coupling = homophily_matrix(epsilon=0.1)
        graphs = [chain_graph(4) for _ in range(plan_module.PLAN_CACHE_SIZE + 5)]
        for graph in graphs:
            get_plan(graph, coupling)
        assert plan_cache_info()["size"] <= plan_module.PLAN_CACHE_SIZE

    def test_clear_plan_cache_resets_stats(self):
        get_plan(torus_graph(), fraud_matrix(epsilon=0.1))
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {"size": 0, "binary_size": 0, "hits": 0, "misses": 0,
                        "sbp_size": 0, "sbp_hits": 0, "sbp_misses": 0}


class TestBinarySolverCache:
    def test_solver_is_cached_per_graph_and_h(self):
        graph = random_graph(30, 0.15, seed=3)
        first = get_binary_solver(graph, 0.01)
        assert get_binary_solver(graph, 0.01) is first
        assert get_binary_solver(graph, 0.02) is not first
        assert get_binary_solver(graph, 0.01, variant="exact") is not first

    def test_solver_solves_the_binary_system(self):
        graph = chain_graph(6)
        h = 0.05
        solve = get_binary_solver(graph, h)
        rhs = np.arange(6, dtype=float)
        solution = solve(rhs)
        adjacency = graph.adjacency.toarray()
        degrees = np.diag(graph.degree_vector())
        system = np.eye(6) - 2 * h * adjacency + 4 * h * h * degrees
        assert np.allclose(system @ solution, rhs, atol=1e-12)

    def test_multi_rhs_solve(self):
        graph = chain_graph(6)
        solve = get_binary_solver(graph, 0.05)
        stacked = np.column_stack([np.arange(6.0), np.ones(6)])
        combined = solve(stacked)
        assert combined.shape == (6, 2)
        assert np.allclose(combined[:, 0], solve(stacked[:, 0]), atol=1e-14)
