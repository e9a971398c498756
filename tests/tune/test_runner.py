"""The ablation runner: isolation, timeouts, memoisation, registry reads."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.coupling import synthetic_residual_matrix
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.tune import (
    AblationRunner,
    RunMetrics,
    Workload,
    config_id,
    make_engine_workload,
    make_mixed_workload,
    measure_config,
    service_config_space,
)


@pytest.fixture(scope="module")
def workload():
    graph = random_graph(80, 0.08, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.005)
    return make_mixed_workload(graph, coupling, seed=0, num_clients=4,
                               requests_per_client=3, max_iterations=20)


def _fake_metrics(p99=0.01, throughput=100.0):
    return RunMetrics(
        requests=10, queries=9, updates=1, elapsed_seconds=0.1,
        throughput_rps=throughput, p50_seconds=p99 / 2, p99_seconds=p99,
        query_p99_seconds=p99, cache_hits=3, cache_misses=6,
        cache_hit_rate=0.33, sweeps=12, plan_builds=1, stale_hits=0,
        coalesced_batches=2)


def _deterministic_measure(workload, config):
    """A pure function of the config: slower with bigger windows."""
    penalty = 1.0 + float(config["window_ms"]) / 10.0
    return _fake_metrics(p99=0.01 * penalty, throughput=100.0 / penalty)


class TestWorkloads:
    def test_mixed_workload_is_a_pure_function_of_its_arguments(self):
        graph = random_graph(60, 0.1, seed=3)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        first = make_mixed_workload(graph, coupling, seed=5)
        second = make_mixed_workload(graph, coupling, seed=5)
        assert len(first.requests) == len(second.requests)
        for a, b in zip(first.requests, second.requests):
            assert a["op"] == b["op"]
            if a["op"] == "update":
                assert a["new_edges"] == b["new_edges"]
            else:
                np.testing.assert_array_equal(a["explicit"], b["explicit"])
                assert a["max_staleness"] == b["max_staleness"]

    def test_mixed_workload_updates_use_absent_edges(self):
        graph = random_graph(60, 0.1, seed=3)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        workload = make_mixed_workload(graph, coupling, seed=5)
        adjacency = graph.adjacency
        for request in workload.requests:
            if request["op"] == "update":
                for u, v in request["new_edges"]:
                    assert adjacency[u, v] == 0

    def test_engine_workload_shape(self):
        graph = random_graph(60, 0.1, seed=3)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        workload = make_engine_workload(graph, coupling, seed=5,
                                        batch_width=3)
        assert workload.kind == "engine"
        assert len(workload.explicits) == 3

    def test_workload_validation(self):
        graph = random_graph(10, 0.2, seed=1)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        with pytest.raises(ValidationError, match="unknown workload kind"):
            Workload(kind="weird", graph=graph, coupling=coupling)
        with pytest.raises(ValidationError, match="needs requests"):
            Workload(kind="mixed", graph=graph, coupling=coupling)


class TestMeasureConfig:
    def test_metrics_come_off_the_registries(self, workload):
        metrics = measure_config(workload,
                                 service_config_space().default_config())
        updates = sum(1 for r in workload.requests if r["op"] == "update")
        assert metrics.requests == len(workload.requests)
        assert metrics.updates == updates
        assert metrics.queries == len(workload.requests) - updates
        assert metrics.sweeps > 0
        assert metrics.plan_builds >= 0
        assert metrics.cache_hits + metrics.cache_misses == metrics.queries
        assert metrics.p99_seconds >= metrics.p50_seconds > 0

    def test_cacheless_config_reports_zero_hit_rate(self, workload):
        config = dict(service_config_space().default_config(),
                      result_cache_size=0)
        metrics = measure_config(workload, config)
        assert metrics.cache_hits == 0
        assert metrics.cache_hit_rate == 0.0

    def test_engine_workload_counts_sweeps(self):
        graph = random_graph(60, 0.1, seed=3)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        workload = make_engine_workload(graph, coupling, seed=5,
                                        batch_width=2, rounds=2,
                                        max_iterations=10)
        metrics = measure_config(workload,
                                 service_config_space().default_config())
        assert metrics.sweeps > 0
        assert metrics.requests == 2  # one per engine round
        assert metrics.updates == 0

    def test_restores_global_obs_state(self, workload):
        from repro.obs import obs_enabled, set_obs_enabled

        previous = obs_enabled()
        try:
            set_obs_enabled(False)
            measure_config(workload,
                           service_config_space().default_config())
            assert obs_enabled() is False
        finally:
            set_obs_enabled(previous)


class TestRunnerIsolation:
    def test_crashing_config_is_recorded_failed_and_sweep_completes(
            self, workload):
        calls = []

        def measure(workload, config):
            calls.append(config_id(config))
            if config["max_batch"] == 4:
                raise RuntimeError("engine exploded mid-run")
            return _deterministic_measure(workload, config)

        runner = AblationRunner(workload, measure=measure)
        baseline, runs = runner.run_ablation()
        assert baseline.ok
        failed = [r for _, _, r in runs if r.status == "failed"]
        assert len(failed) == 1
        assert "engine exploded mid-run" in failed[0].error
        assert failed[0].config["max_batch"] == 4
        # The sweep completed: every non-skipped neighbour was attempted.
        attempted = [r for _, _, r in runs if r.status != "skipped"]
        assert len(calls) == len(attempted) + 1  # + the baseline

    def test_hanging_config_times_out_and_sweep_continues(self, workload):
        def measure(workload, config):
            if config["max_batch"] == 4:
                time.sleep(30.0)
            return _deterministic_measure(workload, config)

        runner = AblationRunner(workload, measure=measure,
                                run_timeout_seconds=0.2)
        record = runner.run_config(
            dict(service_config_space().default_config(), max_batch=4))
        assert record.status == "timeout"
        assert "exceeded" in record.error
        # The runner is still serviceable after a timeout.
        assert runner.run_baseline().ok

    def test_gated_config_is_skipped_not_run(self, workload):
        def measure(workload, config):  # pragma: no cover - must not run
            raise AssertionError("measured a gated config")

        runner = AblationRunner(workload, measure=measure)
        config = dict(service_config_space().default_config(),
                      dtype="float32", precision="auto")
        record = runner.run_config(config)
        assert record.status == "skipped"
        assert "auto precision" in record.error

    def test_records_are_memoised_by_run_id(self, workload):
        calls = []

        def measure(workload, config):
            calls.append(1)
            return _deterministic_measure(workload, config)

        runner = AblationRunner(workload, measure=measure)
        config = service_config_space().default_config()
        first = runner.run_config(config)
        second = runner.run_config(dict(config))
        assert first is second
        assert len(calls) == 1

    def test_rejects_nonpositive_timeout(self, workload):
        with pytest.raises(ValidationError, match="run_timeout_seconds"):
            AblationRunner(workload, run_timeout_seconds=0)


class TestRunnerDeterminism:
    def test_identical_sweeps_produce_identical_records(self, workload):
        first = AblationRunner(workload, measure=_deterministic_measure)
        second = AblationRunner(workload, measure=_deterministic_measure)
        baseline1, runs1 = first.run_ablation()
        baseline2, runs2 = second.run_ablation()
        assert baseline1.run_id == baseline2.run_id
        assert [(p, v, r.run_id, r.status) for p, v, r in runs1] == \
               [(p, v, r.run_id, r.status) for p, v, r in runs2]
        assert [r.metrics.as_dict() for _, _, r in runs1 if r.ok] == \
               [r.metrics.as_dict() for _, _, r in runs2 if r.ok]

    def test_progress_callback_sees_every_record(self, workload):
        seen = []
        runner = AblationRunner(workload, measure=_deterministic_measure,
                                progress=seen.append)
        _, runs = runner.run_ablation()
        assert len(seen) == len(runs) + 1  # + the baseline
        statuses = {record.status for record in seen}
        assert statuses <= {"ok", "skipped"}


class TestRunMetricsRoundTrip:
    def test_as_dict_from_dict(self):
        metrics = _fake_metrics()
        assert RunMetrics.from_dict(metrics.as_dict()) == metrics
