"""Convergence profiles: residual trajectories next to the Lemma 8 radius."""

from __future__ import annotations

import pytest

from repro.engine import get_plan, run_batch, run_sbp_batch
from repro.obs.profile import _tail_rate


class TestBatchProfile:
    def test_profile_rides_in_result_extra(self, binary_chain_workload):
        graph, coupling, explicit = binary_chain_workload
        plan = get_plan(graph, coupling)
        (result,) = run_batch(plan, [explicit], profile=True)
        profile = result.extra["profile"]
        assert profile["engine"] == "batch"
        assert profile["iterations"] == result.iterations
        assert profile["converged"] is True
        assert len(profile["residuals"]) >= 1
        assert profile["spectral_radius"] == pytest.approx(
            plan.update_spectral_radius())
        assert profile["exactly_convergent"] is True

    def test_geometric_rate_tracks_the_radius(self, binary_chain_workload):
        graph, coupling, explicit = binary_chain_workload
        plan = get_plan(graph, coupling)
        (result,) = run_batch(plan, [explicit], profile=True)
        profile = result.extra["profile"]
        # Geometric decay at roughly rho per sweep (Lemma 8): the observed
        # tail ratio may only undershoot the exact radius, never exceed a
        # loose ceiling above it.
        assert 0.0 < profile["geometric_rate"] <= \
            profile["spectral_radius"] * 1.5 + 1e-9

    def test_profile_off_by_default(self, binary_chain_workload):
        graph, coupling, explicit = binary_chain_workload
        plan = get_plan(graph, coupling)
        (result,) = run_batch(plan, [explicit])
        assert "profile" not in result.extra

    def test_residual_trajectory_is_decreasing_at_the_tail(
            self, binary_chain_workload):
        graph, coupling, explicit = binary_chain_workload
        plan = get_plan(graph, coupling)
        (result,) = run_batch(plan, [explicit], profile=True)
        residuals = result.extra["profile"]["residuals"]
        assert residuals[-1] <= residuals[0]
        assert residuals[-1] <= result.extra["profile"]["tolerance"]


class TestConjugateGradientTelemetry:
    """The CG path reports its steps as sweeps and its bound as residuals."""

    def _plan(self):
        from repro.core.convergence import max_epsilon_exact
        from repro.datasets import kronecker_suite

        workload = kronecker_suite(max_index=1, seed=0)[0]
        limit = max_epsilon_exact(workload.graph, workload.coupling)
        plan = get_plan(workload.graph, workload.coupling.scaled(0.9 * limit))
        return plan, workload.explicit

    def test_each_cg_step_is_one_sweep_span_and_one_count(self):
        from repro.engine.batch import SWEEPS
        from repro.obs import recent_spans
        from repro.obs.trace import default_ring

        plan, explicit = self._plan()
        default_ring().clear()
        before = SWEEPS.value(engine="batch")
        results = run_batch(plan, [explicit, explicit * 1e4])
        counted = SWEEPS.value(engine="batch") - before
        sweeps = recent_spans("engine.sweep")
        iterations = [result.iterations for result in results]
        assert {result.extra["solver"] for result in results} == {"cg"}
        assert all(event.tags["solver"] == "cg" for event in sweeps)
        assert len(sweeps) == counted == max(iterations)
        # The two queries stop at different steps, each after one
        # recomputation of its true residual.
        assert iterations[0] != iterations[1]
        assert len(recent_spans("engine.certify")) == 2

    def test_profile_carries_the_bound_trajectory(self):
        plan, explicit = self._plan()
        (result,) = run_batch(plan, [explicit], profile=True)
        profile = result.extra["profile"]
        assert result.extra["solver"] == "cg"
        assert profile["residuals"] == result.residual_history
        assert profile["iterations"] == result.iterations
        assert profile["converged"] is True
        assert profile["residuals"][-1] == result.extra["error_bound"]
        assert profile["residuals"][-1] < profile["tolerance"]


class TestSbpProfile:
    def test_records_traversal_shape(self, sbp_example, fraud_coupling,
                                     torus_explicit):
        explicit = torus_explicit[: sbp_example.num_nodes]
        (result,) = run_sbp_batch(sbp_example, fraud_coupling, [explicit],
                                  profile=True)
        profile = result.extra["profile"]
        assert profile["engine"] == "sbp"
        assert profile["converged"] is True
        assert profile["residuals"] == []
        assert profile["max_level"] >= 1
        assert profile["max_width"] >= 1
        assert profile["edges_touched"] >= 1
        assert profile["labeled_nodes"] == 3

    def test_profile_off_by_default(self, sbp_example, fraud_coupling,
                                    torus_explicit):
        explicit = torus_explicit[: sbp_example.num_nodes]
        (result,) = run_sbp_batch(sbp_example, fraud_coupling, [explicit])
        assert "profile" not in result.extra


class TestTailRate:
    def test_exact_geometric_sequence(self):
        assert _tail_rate([1.0, 0.5, 0.25, 0.125]) == pytest.approx(0.5)

    def test_skips_zero_denominators(self):
        # The (0.0 -> 0.0) pair is skipped; the (1.0 -> 0.0) drop counts.
        assert _tail_rate([1.0, 0.0, 0.0]) == 0.0
        assert _tail_rate([0.0, 0.0, 0.0]) is None

    def test_too_short_yields_none(self):
        assert _tail_rate([1.0]) is None
        assert _tail_rate([]) is None
