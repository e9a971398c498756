"""Conjugate gradients inside run_batch: correctness, certified stop, choice.

Past the crossover radius (:data:`repro.engine.batch.CG_MIN_RADIUS`),
``run_batch`` solves Proposition 7's system by CG and stops each query on
the certified bound ``‖Ê − L(B)‖_F / (1 − ρ̄) < tolerance``.  These tests
hold it to the closed form, to long Jacobi runs, to bit-for-bit batch
independence, and check when Jacobi keeps answering instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IncrementalLinBP, linbp
from repro.core.convergence import max_epsilon_exact
from repro.core.linbp import linbp_closed_form
from repro.coupling import CouplingMatrix
from repro.datasets import kronecker_suite
from repro.engine import BatchWorkspace, clear_plan_cache, get_plan, run_batch
from repro.engine.batch import CG_MIN_RADIUS
from repro.graphs import Graph

TOLERANCE = 1e-10


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(scope="module")
def suite():
    return kronecker_suite(max_index=4, seed=0)


def _near_limit(workload, fraction, echo_cancellation=True):
    """The workload's coupling at ``fraction`` of its Lemma 8 limit."""
    limit = max_epsilon_exact(workload.graph, workload.coupling,
                              echo_cancellation=echo_cancellation)
    return workload.coupling.scaled(fraction * limit)


def _queries(workload, count):
    """Distinct explicit-belief matrices on the workload's graph."""
    rng = np.random.default_rng(5)
    explicit = workload.explicit
    queries = []
    for _ in range(count):
        rows = rng.permutation(explicit.shape[0])
        queries.append(explicit[rows] * rng.uniform(0.5, 1.5))
    return queries


def _true_bound(plan, explicit, beliefs, radius):
    """``‖Ê − L(B)‖_F / (1 − ρ̄)`` recomputed from scratch with scipy."""
    residual = plan.coupling.residual
    image = beliefs - plan.adjacency @ (beliefs @ residual)
    if plan.echo_cancellation:
        image += plan.degrees[:, None] * (beliefs @ plan.coupling
                                          .residual_squared)
    return np.linalg.norm(explicit - image) / (1.0 - radius)


class TestAgainstReferences:
    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("echo", [True, False])
    def test_matches_closed_form_to_1e10(self, suite, index, fraction, echo):
        workload = suite[index - 1]
        coupling = _near_limit(workload, fraction, echo)
        plan = get_plan(workload.graph, coupling, echo_cancellation=echo)
        (result,) = run_batch(plan, [workload.explicit])
        exact = linbp_closed_form(workload.graph, coupling,
                                  workload.explicit,
                                  echo_cancellation=echo)
        assert result.extra["solver"] == "cg"
        # Within the default budget of 100, where Jacobi needs hundreds
        # of sweeps at 0.9 of the limit and thousands at 0.99.
        assert result.converged
        assert result.iterations < 100
        assert np.abs(result.beliefs - exact.beliefs).max() < TOLERANCE
        assert result.extra["error_bound"] < TOLERANCE

    def test_matches_long_jacobi_on_kronecker_3(self, suite):
        workload = suite[2]
        coupling = _near_limit(workload, 0.9)
        plan = get_plan(workload.graph, coupling)
        (result,) = run_batch(plan, [workload.explicit])
        (reference,) = run_batch(plan, [workload.explicit],
                                 num_iterations=600)
        assert result.extra["solver"] == "cg"
        assert reference.extra["solver"] == "jacobi"
        assert np.abs(result.beliefs - reference.beliefs).max() < TOLERANCE
        assert result.extra["error_bound"] < TOLERANCE

    def test_error_bound_is_the_recomputed_true_residual(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        (result,) = run_batch(plan, [workload.explicit])
        radius = result.extra["radius_bound"]
        assert radius == plan.update_spectral_radius()
        expected = _true_bound(plan, workload.explicit, result.beliefs,
                               radius)
        assert result.extra["error_bound"] == pytest.approx(expected,
                                                            rel=1e-6)
        assert result.residual_history[-1] == result.extra["error_bound"]


class TestBatchIndependence:
    def test_alone_and_at_every_position_of_a_16_query_batch(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        queries = _queries(workload, 16)
        alone = [run_batch(plan, [query])[0] for query in queries]
        for shift in range(16):
            batch = queries[shift:] + queries[:shift]
            results = run_batch(plan, batch)
            for position, result in enumerate(results):
                single = alone[(position + shift) % 16]
                assert result.extra["solver"] == "cg"
                assert result.iterations == single.iterations
                assert result.converged == single.converged
                assert np.array_equal(result.beliefs, single.beliefs)
                assert result.residual_history == single.residual_history

    def test_heterogeneous_queries_stop_at_their_own_step(self, suite):
        workload = suite[0]
        coupling = _near_limit(workload, 0.9)
        plan = get_plan(workload.graph, coupling)
        explicit_list = [workload.explicit * scale
                         for scale in (1e-6, 1.0, 1e4)]
        batched = run_batch(plan, explicit_list)
        for explicit, result in zip(explicit_list, batched):
            sequential = linbp(workload.graph, coupling, explicit)
            assert result.extra["solver"] == "cg"
            assert result.iterations == sequential.iterations
            assert np.array_equal(result.beliefs, sequential.beliefs)
        assert len({result.iterations for result in batched}) > 1

    def test_workspace_reuse_gives_identical_answers(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        queries = _queries(workload, 3)
        workspace = BatchWorkspace(plan, 3)
        first = run_batch(plan, queries, workspace=workspace)
        second = run_batch(plan, queries, workspace=workspace)
        for a, b in zip(first, second):
            assert np.array_equal(a.beliefs, b.beliefs)


class TestWarmStarts:
    def test_initial_beliefs_certify_in_fewer_steps(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        (cold,) = run_batch(plan, [workload.explicit])
        start = cold.beliefs + 1e-6
        (warm,) = run_batch(plan, [workload.explicit],
                            initial_beliefs=[start])
        assert warm.converged and warm.extra["solver"] == "cg"
        assert warm.iterations < cold.iterations
        assert np.abs(warm.beliefs - cold.beliefs).max() < TOLERANCE

    def test_a_start_at_the_solution_needs_no_step(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        (cold,) = run_batch(plan, [workload.explicit])
        (warm,) = run_batch(plan, [workload.explicit],
                            initial_beliefs=[cold.beliefs])
        assert warm.converged
        assert warm.iterations == 0
        assert np.array_equal(warm.beliefs, cold.beliefs)

    def test_incremental_linbp_edge_and_label_updates(self, suite):
        workload = suite[0]
        coupling = _near_limit(workload, 0.9)
        incremental = IncrementalLinBP(workload.graph, coupling)
        incremental.run(workload.explicit)
        edges = [(0, 200), (5, 150), (17, 99)]
        repaired = incremental.add_edges(edges)
        new_graph = incremental.graph
        assert repaired.converged
        exact = linbp_closed_form(new_graph, coupling, workload.explicit)
        assert np.abs(repaired.beliefs - exact.beliefs).max() < TOLERANCE
        fresh = linbp(new_graph, coupling, workload.explicit)
        assert repaired.extra["update_iterations"] < fresh.iterations
        labels = np.zeros_like(workload.explicit)
        labels[3] = [0.1, -0.05, -0.05]
        updated = incremental.add_explicit_beliefs(labels)
        exact = linbp_closed_form(new_graph, coupling,
                                  incremental.explicit_beliefs)
        assert updated.converged
        assert np.abs(updated.beliefs - exact.beliefs).max() < TOLERANCE


class TestStoppingRule:
    def test_exhausted_budget_is_not_converged(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        (result,) = run_batch(plan, [workload.explicit], max_iterations=3)
        assert result.extra["solver"] == "cg"
        assert result.iterations == 3
        assert not result.converged
        assert len(result.residual_history) == 3
        assert result.extra["error_bound"] >= TOLERANCE
        assert result.residual_history[-1] == result.extra["error_bound"]

    def test_all_zero_explicit_beliefs(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        zero = np.zeros_like(workload.explicit)
        results = run_batch(plan, [zero, workload.explicit, zero])
        for result in (results[0], results[2]):
            assert result.extra["solver"] == "cg"
            assert result.converged
            assert result.iterations == 0
            assert result.extra["error_bound"] == 0.0
            assert not np.any(result.beliefs)
        assert results[1].converged and results[1].iterations > 0

    def test_convergence_rests_on_the_true_residual(self, suite,
                                                    monkeypatch):
        # Inflate every recomputed true residual: the recurrence residual
        # still shrinks below the tolerance, but no query may converge on
        # it alone.
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.9))
        honest = BatchWorkspace._true_residual

        def inflated(self, out):
            return honest(self, out) * 1e12 + 1.0

        monkeypatch.setattr(BatchWorkspace, "_true_residual", inflated)
        (result,) = run_batch(plan, [workload.explicit], max_iterations=60)
        assert result.extra["solver"] == "cg"
        assert not result.converged
        assert result.iterations == 60
        assert result.extra["error_bound"] >= TOLERANCE


class TestSolverChoice:
    def test_stream_views_plan_stays_on_jacobi_without_an_eigensolve(
            self, suite):
        workload = suite[3]
        plan = get_plan(workload.graph, workload.coupling.scaled(0.001))
        (result,) = run_batch(plan, [workload.explicit])
        assert result.extra["solver"] == "jacobi"
        assert "error_bound" not in result.extra
        assert plan.update_radius_bound() < CG_MIN_RADIUS
        assert plan._update_spectral_radius is None

    def test_path_plan_runs_jacobi_without_an_eigensolve(self):
        # On a path the ∞-norm form ‖Ĥ‖∞·‖A‖∞ + ‖Ĥ²‖∞·‖d‖∞ reads 0.46,
        # above the crossover, while ρ = 0.345: the bound through ρ(Ĥ)
        # decides the plan without the eigensolve, which ARPACK
        # converges on slowly for a path's spectrum.
        n = 500
        graph = Graph.from_edges([(node, node + 1) for node in range(n - 1)])
        residual = np.array([[0.2, -0.1, -0.1], [-0.1, 0.2, -0.1],
                             [-0.1, -0.1, 0.2]])
        plan = get_plan(graph, CouplingMatrix.from_residual(residual,
                                                            epsilon=0.5))
        explicit = np.zeros((n, 3))
        explicit[0] = [0.2, -0.1, -0.1]
        explicit[n - 1] = [-0.1, -0.1, 0.2]
        (result,) = run_batch(plan, [explicit])
        assert result.extra["solver"] == "jacobi"
        assert result.converged
        assert plan._update_spectral_radius is None
        assert plan.update_radius_bound() == pytest.approx(0.345)

    def test_pinned_iterations_run_jacobi_sweeps(self, suite):
        workload = suite[0]
        coupling = _near_limit(workload, 0.9)
        plan = get_plan(workload.graph, coupling)
        (result,) = run_batch(plan, [workload.explicit], num_iterations=7)
        assert result.extra["solver"] == "jacobi"
        assert result.iterations == 7
        workspace = BatchWorkspace(plan, 1)
        workspace.load([workload.explicit])
        for _ in range(7):
            workspace.step()
        assert np.array_equal(result.beliefs, workspace.beliefs(0))

    def test_divergent_radius_runs_jacobi(self, suite):
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 1.2))
        assert plan.update_spectral_radius() >= 1.0
        (result,) = run_batch(plan, [workload.explicit], max_iterations=5)
        assert result.extra["solver"] == "jacobi"
        assert not result.converged

    def test_inexactly_symmetric_coupling_runs_jacobi(self, suite):
        workload = suite[0]
        residual = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                             [-1.0, -1.0, 2.0]]) / 3.0
        residual[0, 1] += 1e-12
        residual[0, 2] -= 1e-12
        skewed = CouplingMatrix.from_residual(residual)
        limit = max_epsilon_exact(workload.graph, skewed)
        plan = get_plan(workload.graph, skewed.scaled(0.9 * limit))
        assert not plan.is_symmetric
        (result,) = run_batch(plan, [workload.explicit], max_iterations=400)
        assert result.extra["solver"] == "jacobi"
        symmetric = CouplingMatrix.from_residual((residual + residual.T) / 2)
        assert get_plan(workload.graph, symmetric).is_symmetric

    def test_radius_below_the_crossover_runs_jacobi(self, suite):
        # The radius bound cannot decide here, so the eigensolve runs and
        # finds the radius below the crossover.
        workload = suite[0]
        plan = get_plan(workload.graph, _near_limit(workload, 0.2))
        assert plan.update_radius_bound() >= CG_MIN_RADIUS
        (result,) = run_batch(plan, [workload.explicit])
        assert plan.update_spectral_radius() < CG_MIN_RADIUS
        assert result.extra["solver"] == "jacobi"
