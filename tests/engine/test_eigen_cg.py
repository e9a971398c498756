"""CG one eigen-class at a time: the eigenbasis and the per-class stop.

``PropagationPlan.eigenbasis()`` splits Proposition 7's system into one
``n x n`` system ``M_c = I − λ_c·A + λ_c²·D`` per eigenvalue of ``Ĥ``;
``run_batch`` runs one CG per (query, class) on them.  These tests hold
the split to the plan's own operator, check that the CG iterate survives
Jacobi sweeps of a reused workspace, that a class with nothing to solve
takes no step, and that a failed certification restarts only the query
that failed.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.convergence import max_epsilon_exact
from repro.datasets import kronecker_suite
from repro.engine import BatchWorkspace, clear_plan_cache, get_plan, kernels, run_batch


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(scope="module")
def workload():
    return kronecker_suite(max_index=1, seed=0)[0]


def _plan(workload, echo=True):
    """The workload's plan at 0.9 of its Lemma 8 limit, where CG answers."""
    limit = max_epsilon_exact(workload.graph, workload.coupling,
                              echo_cancellation=echo)
    return get_plan(workload.graph, workload.coupling.scaled(0.9 * limit),
                    echo_cancellation=echo)


def _class_steps(monkeypatch, plan):
    """Count the SpMVs of each class system during ``run_batch`` calls."""
    _, systems = plan.eigenbasis()
    counts = {id(system): 0 for system in systems}
    spmv = kernels.spmv

    def counting(csr, vector, out):
        counts[id(csr)] += 1
        return spmv(csr, vector, out)

    monkeypatch.setattr(kernels, "spmv", counting)
    return lambda: [counts[id(system)] for system in systems]


class TestEigenbasis:
    @pytest.mark.parametrize("echo", [True, False])
    def test_classes_reproduce_the_plan_operator(self, workload, echo):
        plan = _plan(workload, echo)
        vectors, systems = plan.eigenbasis()
        k, n = plan.num_classes, plan.num_nodes
        assert np.abs(vectors.T @ vectors - np.eye(k)).max() < 1e-14
        values = np.linalg.eigh(plan.residual)[0]
        identity = sp.identity(n, format="csr")
        for value, system in zip(values, systems):
            assert system.has_canonical_format
            expected = identity - value * plan.adjacency
            if echo:
                expected = expected + value * value * sp.diags(plan.degrees)
            assert abs(system - expected).max() < 1e-15
        block = np.random.default_rng(3).standard_normal((n, k))
        workspace = BatchWorkspace(plan, 1)
        image = workspace.apply_system(block, out=np.empty((n, k)))
        rotated = block @ vectors
        per_class = np.column_stack([systems[klass] @ rotated[:, klass]
                                     for klass in range(k)])
        assert np.abs(image @ vectors - per_class).max() < 1e-12

    def test_built_once_and_only_for_cg(self, workload):
        plan = _plan(workload)
        assert plan._eigenbasis is None
        (result,) = run_batch(plan, [workload.explicit], num_iterations=3)
        assert result.extra["solver"] == "jacobi"
        assert plan._eigenbasis is None
        (result,) = run_batch(plan, [workload.explicit])
        assert result.extra["solver"] == "cg"
        assert plan.eigenbasis() is plan.eigenbasis()


    def test_a_workspace_swept_between_cg_solves(self, workload):
        # Three sweeps leave the ping-pong buffers swapped; the CG iterate
        # lives in whichever is the back buffer now.
        # Two queries that stop at different steps: rotating the first
        # back into the front buffer must leave the second's iterate alone.
        plan = _plan(workload)
        queries = [workload.explicit * 1e-3, workload.explicit * 1e3]
        workspace = BatchWorkspace(plan, 2)
        run_batch(plan, queries, workspace=workspace)
        run_batch(plan, queries, num_iterations=3, workspace=workspace)
        reused = run_batch(plan, queries, workspace=workspace)
        fresh = run_batch(plan, queries)
        assert reused[0].iterations < reused[1].iterations
        for again, alone in zip(reused, fresh):
            assert again.extra["solver"] == "cg"
            assert again.iterations == alone.iterations
            assert np.array_equal(again.beliefs, alone.beliefs)


class TestPerClassSteps:
    def test_a_class_with_a_zero_right_hand_side_takes_no_step(
            self, workload, monkeypatch):
        # Ĥ's rows sum to zero, so the constant vector is its λ = 0
        # eigenvector; a centered Ê has nothing in that class.
        plan = _plan(workload)
        explicit = workload.explicit
        assert np.abs(explicit.sum(axis=1)).max() == 0.0
        steps = _class_steps(monkeypatch, plan)
        (result,) = run_batch(plan, [explicit])
        assert result.converged
        zero_class = int(np.argmin(np.abs(np.linalg.eigh(plan.residual)[0])))
        per_class = steps()
        assert per_class[zero_class] == 0
        assert all(per_class[klass] > 0 for klass in range(len(per_class))
                   if klass != zero_class)
        # A query's iterations are the steps of its slowest class.
        assert result.iterations == max(per_class)

    def test_a_failed_certification_restarts_only_that_query(
            self, workload, monkeypatch):
        plan = _plan(workload)
        (alone,) = run_batch(plan, [workload.explicit])
        honest = BatchWorkspace._true_residual
        calls = []

        def fail_middle_once(self, out):
            squares = honest(self, out)
            calls.append(True)
            if len(calls) == 1:
                squares[1] = 1e6
            return squares

        monkeypatch.setattr(BatchWorkspace, "_true_residual",
                            fail_middle_once)
        # Three copies of one query are nominated at the same step; only
        # the middle one's certification fails.
        results = run_batch(plan, [workload.explicit] * 3)
        for query in (0, 2):
            assert results[query].iterations == alone.iterations
            assert results[query].residual_history == alone.residual_history
            assert np.array_equal(results[query].beliefs, alone.beliefs)
        restarted = results[1]
        assert restarted.converged
        assert restarted.iterations > alone.iterations
        assert restarted.residual_history[alone.iterations - 1] == \
            pytest.approx(1e3 / (1.0 - restarted.extra["radius_bound"]))
        assert np.abs(restarted.beliefs - alone.beliefs).max() < 1e-10
