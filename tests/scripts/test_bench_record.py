"""bench_record.py hardening: bad baselines fail fast, before any benchmark.

These tests exercise the compare path's baseline validation through the
real CLI (a subprocess, like CI runs it).  No benchmark ever runs — the
whole point is that a missing or malformed baseline exits non-zero with
an actionable message *immediately*.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "bench_record.py"


def _run(*arguments):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *arguments],
        capture_output=True, text=True, timeout=60)


class TestBaselineValidation:
    def test_missing_baseline_file_fails_with_message(self, tmp_path):
        completed = _run("--compare", "--baseline",
                         str(tmp_path / "BENCH_missing.json"))
        assert completed.returncode != 0
        assert "does not exist" in completed.stderr
        assert "--record" in completed.stderr

    def test_invalid_json_fails_with_message(self, tmp_path):
        baseline = tmp_path / "BENCH_bad.json"
        baseline.write_text("{not json")
        completed = _run("--compare", "--baseline", str(baseline))
        assert completed.returncode != 0
        assert "not valid JSON" in completed.stderr

    def test_missing_kernels_table_fails_with_message(self, tmp_path):
        baseline = tmp_path / "BENCH_empty.json"
        baseline.write_text(json.dumps({"threshold": 0.2}))
        completed = _run("--compare", "--baseline", str(baseline))
        assert completed.returncode != 0
        assert "no 'kernels' table" in completed.stderr

    def test_kernel_without_min_seconds_fails_with_message(self, tmp_path):
        baseline = tmp_path / "BENCH_partial.json"
        baseline.write_text(json.dumps(
            {"kernels": {"test_something": {"mean_seconds": 1.0}}}))
        completed = _run("--compare", "--baseline", str(baseline))
        assert completed.returncode != 0
        assert "min_seconds" in completed.stderr
        assert "test_something" in completed.stderr

    def test_non_numeric_min_seconds_fails_with_message(self, tmp_path):
        baseline = tmp_path / "BENCH_text.json"
        baseline.write_text(json.dumps(
            {"kernels": {"k": {"min_seconds": "fast"}}}))
        completed = _run("--compare", "--baseline", str(baseline))
        assert completed.returncode != 0
        assert "non-numeric" in completed.stderr

    def test_record_and_smoke_are_mutually_exclusive(self):
        completed = _run("--record", "--smoke")
        assert completed.returncode != 0
        assert "meaningless" in completed.stderr


class TestSuites:
    def test_sql_suite_defaults_to_sql_baseline(self, tmp_path):
        # With no BENCH file at the given path, the error message names
        # the resolved baseline — proving the suite switched defaults.
        completed = _run("--compare", "--suite", "sql", "--baseline",
                         str(tmp_path / "BENCH_sql.json"))
        assert completed.returncode != 0
        assert "BENCH_sql.json" in completed.stderr

    def test_unknown_suite_rejected_listing_choices(self):
        completed = _run("--compare", "--suite", "turbo")
        assert completed.returncode != 0
        assert "unknown benchmark suite 'turbo'" in completed.stderr
        # The error must hand the operator the fix: every valid name.
        for name in ("engine", "sql", "precision", "all"):
            assert name in completed.stderr

    def test_precision_suite_defaults_to_precision_baseline(self, tmp_path):
        completed = _run("--compare", "--suite", "precision", "--baseline",
                         str(tmp_path / "BENCH_precision.json"))
        assert completed.returncode != 0
        assert "BENCH_precision.json" in completed.stderr

    def test_suite_all_rejects_baseline_and_target_overrides(self):
        completed = _run("--compare", "--suite", "all",
                         "--baseline", "BENCH_custom.json")
        assert completed.returncode != 0
        assert "each suite's own baseline" in completed.stderr

    def test_suite_all_expands_to_every_suite(self):
        sys.path.insert(0, str(SCRIPT.parent))
        try:
            import bench_record
            assert bench_record.resolve_suites("all") == \
                sorted(bench_record.SUITES)
            assert bench_record.resolve_suites("precision") == ["precision"]
        finally:
            sys.path.remove(str(SCRIPT.parent))

    def test_repo_baselines_are_valid(self):
        # The committed baselines must always pass validation.
        sys.path.insert(0, str(SCRIPT.parent))
        try:
            import bench_record
            for name in ("BENCH_sbp.json", "BENCH_precision.json",
                         "BENCH_tune.json"):
                baseline = bench_record.load_baseline(REPO_ROOT / name)
                assert baseline["kernels"]
        finally:
            sys.path.remove(str(SCRIPT.parent))


class TestSuiteRegistry:
    """The single-registry contract: registering a suite IS wiring it.

    A benchmark suite that exists on disk but was never registered (or
    half-registered: missing baseline, dangling target) must fail here,
    not silently drop out of ``--suite all`` and the CI smoke jobs.
    """

    @staticmethod
    def _registry():
        sys.path.insert(0, str(SCRIPT.parent))
        try:
            import bench_record
            return bench_record
        finally:
            sys.path.remove(str(SCRIPT.parent))

    def test_every_committed_baseline_belongs_to_a_suite(self):
        bench_record = self._registry()
        registered = {suite["baseline"]
                      for suite in bench_record.SUITES.values()}
        committed = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
        assert committed == registered, (
            "committed BENCH_*.json files and registered suite baselines "
            f"disagree: only committed {sorted(committed - registered)}, "
            f"only registered {sorted(registered - committed)}")

    def test_every_suite_target_exists(self):
        bench_record = self._registry()
        for name, suite in bench_record.SUITES.items():
            for target in suite["targets"]:
                assert (REPO_ROOT / target).exists(), (
                    f"suite {name!r} names a missing target {target!r}")

    def test_baselines_are_not_shared_between_suites(self):
        bench_record = self._registry()
        baselines = [suite["baseline"]
                     for suite in bench_record.SUITES.values()]
        assert len(baselines) == len(set(baselines))

    def test_tune_suite_is_registered(self):
        bench_record = self._registry()
        assert bench_record.SUITES["tune"]["baseline"] == "BENCH_tune.json"
        assert bench_record.SUITES["tune"]["targets"] == [
            "benchmarks/test_bench_tune.py"]

    def test_suite_help_derives_from_registry(self):
        bench_record = self._registry()
        help_text = bench_record.suite_help()
        for name, suite in bench_record.SUITES.items():
            assert name in help_text
            assert suite["baseline"] in help_text
        assert bench_record.ALL_SUITES in help_text

    def test_unknown_suite_error_lists_every_registered_name(self):
        bench_record = self._registry()
        completed = _run("--compare", "--suite", "turbo")
        assert completed.returncode != 0
        for name in bench_record.SUITES:
            assert name in completed.stderr

    def test_duplicate_registration_rejected(self):
        import pytest

        bench_record = self._registry()
        with pytest.raises(ValueError, match="already registered"):
            bench_record.register_suite(
                "engine", ["benchmarks/test_bench_engine_batch.py"],
                "BENCH_dup.json", "duplicate")
        with pytest.raises(ValueError, match="pseudo-suite"):
            bench_record.register_suite(
                bench_record.ALL_SUITES, ["x"], "BENCH_x.json", "x")
