"""Coordinate descent and the serving-config artifact it emits."""

from __future__ import annotations

import json

import pytest

from repro.coupling import synthetic_residual_matrix
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.service import PropagationService
from repro.tune import (
    ARTIFACT_KIND,
    ARTIFACT_VERSION,
    QUERY_KEYS,
    SERVICE_KEYS,
    AblationRunner,
    RunMetrics,
    config_id,
    make_artifact,
    make_mixed_workload,
    select_config,
    service_config_space,
)


@pytest.fixture(scope="module")
def workload():
    graph = random_graph(80, 0.08, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.005)
    return make_mixed_workload(graph, coupling, seed=0, num_clients=4,
                               requests_per_client=3, max_iterations=20)


def _metrics(p99, throughput):
    return RunMetrics(
        requests=12, queries=11, updates=1, elapsed_seconds=0.12,
        throughput_rps=throughput, p50_seconds=p99 / 2, p99_seconds=p99,
        query_p99_seconds=p99, cache_hits=5, cache_misses=6,
        cache_hit_rate=0.45, sweeps=30, plan_builds=1, stale_hits=1,
        coalesced_batches=4)


def _window_measure(workload, config):
    """Smaller windows are strictly better; everything else is neutral."""
    penalty = 1.0 + float(config["window_ms"]) / 10.0
    return _metrics(p99=0.010 * penalty, throughput=100.0 / penalty)


def _flat_measure(workload, config):
    return _metrics(p99=0.010, throughput=100.0)


def _tradeoff_measure(workload, config):
    """max_batch=32 trades p99 up for throughput — never a dominator."""
    if config["max_batch"] == 32:
        return _metrics(p99=0.020, throughput=150.0)
    return _metrics(p99=0.010, throughput=100.0)


class TestSelectConfig:
    def test_descends_to_the_dominating_value(self, workload):
        runner = AblationRunner(workload, measure=_window_measure)
        selection = select_config(runner, rounds=2, margin=0.02)
        assert selection.improved
        assert selection.config["window_ms"] == 0.0
        # Only the rewarded knob moved off the default.
        default = service_config_space().default_config()
        changed = {key for key in selection.config
                   if selection.config[key] != default[key]}
        assert changed == {"window_ms"}
        assert selection.run_id == config_id(selection.config)

    def test_selected_weakly_dominates_baseline(self, workload):
        runner = AblationRunner(workload, measure=_window_measure)
        selection = select_config(runner, rounds=2, margin=0.02)
        assert selection.selected.metrics.p99_seconds \
            <= selection.baseline.metrics.p99_seconds
        assert selection.selected.metrics.throughput_rps \
            >= selection.baseline.metrics.throughput_rps

    def test_flat_landscape_keeps_the_default(self, workload):
        runner = AblationRunner(workload, measure=_flat_measure)
        selection = select_config(runner, rounds=2, margin=0.02)
        assert not selection.improved
        assert selection.config == service_config_space().default_config()
        assert selection.selected.run_id == selection.baseline.run_id

    def test_pareto_rule_rejects_latency_for_throughput_trades(
            self, workload):
        runner = AblationRunner(workload, measure=_tradeoff_measure)
        selection = select_config(runner, rounds=2, margin=0.02)
        assert not selection.improved
        rejected = [entry for entry in selection.trace
                    if entry["parameter"] == "max_batch"
                    and entry["value"] == 32]
        assert rejected and all("p99 regressed" in entry["reason"]
                                for entry in rejected)

    def test_margin_suppresses_noise_sized_wins(self, workload):
        # The best window gain is ~16.7% relative p99; a 50% margin
        # makes every move sub-threshold.
        runner = AblationRunner(workload, measure=_window_measure)
        selection = select_config(runner, rounds=2, margin=0.5)
        assert not selection.improved
        below = [entry for entry in selection.trace
                 if entry.get("reason", "").startswith(
                     "improvement below margin")]
        assert below

    def test_trace_records_every_evaluation(self, workload):
        def measure(workload, config):
            if config["result_cache_size"] == 0:
                raise RuntimeError("cache-less run crashed")
            return _window_measure(workload, config)

        runner = AblationRunner(workload, measure=measure)
        selection = select_config(runner, rounds=1, margin=0.02)
        statuses = {entry["status"] for entry in selection.trace}
        assert "failed" in statuses
        assert all("cache-less run crashed" in entry["reason"]
                   for entry in selection.trace
                   if entry["status"] == "failed")
        accepted = [entry for entry in selection.trace
                    if entry["accepted"]]
        assert accepted and accepted[0]["parameter"] == "window_ms"
        for entry in selection.trace:
            assert {"round", "parameter", "value", "run_id",
                    "status", "accepted"} <= set(entry)

    def test_determinism_same_measure_same_selection(self, workload):
        first = select_config(
            AblationRunner(workload, measure=_window_measure),
            rounds=2, margin=0.02)
        second = select_config(
            AblationRunner(workload, measure=_window_measure),
            rounds=2, margin=0.02)
        assert first.config == second.config
        assert first.run_id == second.run_id
        assert first.trace == second.trace

    def test_validates_arguments_and_baseline(self, workload):
        runner = AblationRunner(workload, measure=_window_measure)
        with pytest.raises(ValidationError, match="rounds"):
            select_config(runner, rounds=0)
        with pytest.raises(ValidationError, match="margin"):
            select_config(runner, margin=-0.1)

        def broken(workload, config):
            raise RuntimeError("no baseline for you")

        with pytest.raises(ValidationError, match="failed to measure"):
            select_config(AblationRunner(workload, measure=broken))


class TestArtifact:
    def test_artifact_shape_and_provenance(self, workload):
        runner = AblationRunner(workload, measure=_window_measure)
        selection = select_config(runner, rounds=1, margin=0.02)
        artifact = selection.artifact(graph_name="web", workload="demo")
        assert artifact["version"] == ARTIFACT_VERSION
        assert artifact["kind"] == ARTIFACT_KIND
        assert sorted(artifact["service"]) == sorted(SERVICE_KEYS)
        assert sorted(artifact["query"]) == sorted(QUERY_KEYS)
        meta = artifact["meta"]
        assert meta["graph_name"] == "web"
        assert meta["workload"] == "demo"
        assert meta["run_id"] == selection.run_id
        assert meta["baseline"]["run_id"] == selection.baseline.run_id
        json.dumps(artifact)  # artifacts are written to disk as JSON

    def test_artifact_round_trips_through_from_config(self, workload):
        runner = AblationRunner(workload, measure=_window_measure)
        selection = select_config(runner, rounds=1, margin=0.02)
        service = PropagationService.from_config(selection.artifact())
        assert service.default_spec is not None
        assert service.default_spec.tolerance == \
            selection.config["tolerance"]
        assert service.batcher.window_seconds == pytest.approx(
            selection.config["window_ms"] / 1000.0)

    def test_rejects_incomplete_configs(self):
        partial = service_config_space().default_config()
        partial.pop("tolerance")
        with pytest.raises(ValidationError, match="missing parameters"):
            make_artifact(partial)
