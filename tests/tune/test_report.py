"""The ablation report: deltas, ranking, schema, rendering."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ValidationError
from repro.tune import (
    REPORT_SCHEMA_VERSION,
    RunMetrics,
    RunRecord,
    build_report,
    render_report,
)


def _metrics(p99=0.010, throughput=100.0, cache_hit_rate=0.5, sweeps=40):
    return RunMetrics(
        requests=24, queries=21, updates=3, elapsed_seconds=0.24,
        throughput_rps=throughput, p50_seconds=p99 / 2, p99_seconds=p99,
        query_p99_seconds=p99, cache_hits=10, cache_misses=11,
        cache_hit_rate=cache_hit_rate, sweeps=sweeps, plan_builds=1,
        stale_hits=2, coalesced_batches=5)


def _ok(run_id, **metric_overrides):
    return RunRecord(run_id=run_id, config={"knob": run_id}, status="ok",
                     metrics=_metrics(**metric_overrides))


def _skipped(run_id, reason):
    return RunRecord(run_id=run_id, config={"knob": run_id},
                     status="skipped", error=reason)


@pytest.fixture
def sweep():
    baseline = _ok("run-base")
    runs = [
        # window_ms: one value doubles p99 → importance 1.0.
        ("window_ms", 0.0, _ok("run-w0", p99=0.020)),
        ("window_ms", 5.0, _ok("run-w5", p99=0.011)),
        # max_batch: mild throughput change → importance 0.05.
        ("max_batch", 4, _ok("run-b4", throughput=105.0)),
        # tolerance: outside the space, skipped → importance None.
        ("tolerance", 1e-12,
         _skipped("run-t12", "tolerance: 1e-12 is not a candidate value "
                             "of 'tolerance'")),
        # result_cache_size: only a failed variant → importance None.
        ("result_cache_size", 0,
         RunRecord(run_id="run-c0", config={"knob": "c0"},
                   status="failed", error="Traceback: boom")),
    ]
    return baseline, runs


class TestBuildReport:
    def test_requires_a_measured_baseline(self):
        bad = _skipped("run-base", "gate said no")
        with pytest.raises(ValidationError,
                           match="without a measured baseline"):
            build_report(bad, [])
        assert "gate said no" not in repr(build_report)  # sanity: no crash

    def test_deltas_are_signed_relative_changes(self, sweep):
        baseline, runs = sweep
        report = build_report(baseline, runs)
        by_name = {name: variants
                   for name, _, variants in report.parameters}
        doubled = by_name["window_ms"][0]
        assert doubled.value == 0.0
        assert doubled.deltas["p99_seconds"] == pytest.approx(1.0)
        assert doubled.deltas["throughput_rps"] == pytest.approx(0.0)
        assert doubled.score == pytest.approx(1.0)

    def test_importance_is_max_headline_change(self, sweep):
        baseline, runs = sweep
        report = build_report(baseline, runs)
        importance = {name: value
                      for name, value, _ in report.parameters}
        assert importance["window_ms"] == pytest.approx(1.0)
        assert importance["max_batch"] == pytest.approx(0.05)
        assert importance["tolerance"] is None
        assert importance["result_cache_size"] is None  # only a failure

    def test_ranking_measured_first_then_alphabetical(self, sweep):
        baseline, runs = sweep
        report = build_report(baseline, runs)
        assert report.ranking() == [
            "window_ms", "max_batch", "result_cache_size", "tolerance"]

    def test_skipped_and_failed_rows_are_carried_with_reasons(self, sweep):
        baseline, runs = sweep
        report = build_report(baseline, runs)
        document = report.as_dict()
        rows = {variant["run_id"]: variant
                for parameter in document["parameters"]
                for variant in parameter["variants"]}
        assert rows["run-t12"]["status"] == "skipped"
        assert "not a candidate value" in rows["run-t12"]["error"]
        assert rows["run-t12"]["deltas"] is None
        assert rows["run-c0"]["status"] == "failed"
        assert "boom" in rows["run-c0"]["error"]

    def test_schema_versioned_and_json_serialisable(self, sweep):
        baseline, runs = sweep
        document = build_report(baseline, runs, workload="w").as_dict()
        assert document["version"] == REPORT_SCHEMA_VERSION
        assert document["kind"] == "repro-ablation-report"
        assert document["workload"] == "w"
        assert document["baseline"]["run_id"] == "run-base"
        json.dumps(document)  # must round-trip to JSON as-is

    def test_identical_sweeps_render_identical_reports(self, sweep):
        baseline, runs = sweep
        first = build_report(baseline, runs, workload="w")
        second = build_report(baseline, runs, workload="w")
        assert first.as_dict() == second.as_dict()
        assert first.render() == second.render()

    def test_equal_importance_breaks_ties_by_name(self):
        baseline = _ok("run-base")
        runs = [("zeta", 1, _ok("run-z", p99=0.012)),
                ("alpha", 1, _ok("run-a", p99=0.012))]
        report = build_report(baseline, runs)
        assert report.ranking() == ["alpha", "zeta"]


class TestRender:
    def test_render_shows_baseline_ranking_and_reasons(self, sweep):
        baseline, runs = sweep
        text = render_report(build_report(baseline, runs, workload="demo"))
        assert "Ablation report — demo" in text
        assert "baseline run-base" in text
        assert "p99 10.00ms" in text
        lines = text.splitlines()
        rank_rows = [line for line in lines
                     if line.strip() and line.split()[0].isdigit()]
        assert rank_rows[0].split()[1] == "window_ms"
        assert "+100.0%" in text           # the doubled-p99 delta
        assert "not a candidate value of 'tolerance'" in text
        assert "failed: Traceback: boom" in text
