#!/usr/bin/env python3
"""Record and compare kernel benchmark baselines (``BENCH_sbp.json``).

The benchmark harness under ``benchmarks/`` asserts *relative* claims
(batched ≥ 2× sequential, vectorised ≥ 5× the reference loops) but keeps
no memory of absolute kernel cost, so a slow regression that preserves
the ratios goes unnoticed.  This script closes that gap:

* ``--record`` runs the benchmark targets through pytest-benchmark,
  extracts the per-kernel minimum wall-clock times, and writes them to a
  baseline file (default ``BENCH_sbp.json`` at the repository root);
* without ``--record`` (or with the explicit ``--compare``) it re-runs
  the same targets and **fails with a clear per-kernel diff** when any
  recorded kernel got slower than the allowed threshold (default: 20 %
  over baseline);
* ``--smoke`` shrinks every workload (``REPRO_BENCH_SMOKE=1`` plus
  ``--bench-max-index 1``) and **skips the absolute-baseline diff**: on
  shared CI runners only the benchmarks' own *ratio* assertions (batched
  ≥ Nx sequential, coalesced ≥ Nx one-at-a-time) are trustworthy, so the
  smoke gate is "the ratio benchmarks pass at small sizes", nothing
  machine-dependent;
* ``--suite`` selects the benchmark suite.  Suites live in a single
  registry (:func:`register_suite`): each registration names its pytest
  targets, its committed baseline file, and a one-line description —
  and the ``--suite`` help text, the ``all`` expansion and the
  unknown-suite error all derive from that registry, so a suite cannot
  be half-registered.  ``--suite all`` runs every suite in sequence; an
  unknown suite name exits non-zero listing the valid choices.

A missing, malformed or incomplete baseline fails *before* the
benchmark run with a non-zero exit and an actionable message.

Typical usage::

    PYTHONPATH=src python scripts/bench_record.py --record   # refresh baseline
    PYTHONPATH=src python scripts/bench_record.py            # regression gate
    PYTHONPATH=src python scripts/bench_record.py --compare --smoke  # CI gate

Baselines are machine-dependent; re-record whenever the benchmark host
changes.  The default targets are the engine kernel benchmarks (the SBP
engine, the batched LinBP engine and the propagation service) — pass
explicit pytest targets to cover more of the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

#: Pseudo-suite: run every registered suite in sequence.
ALL_SUITES = "all"

#: The single suite registry: ``--suite`` resolution, the ``all``
#: expansion, the help text and the unknown-suite error all read from
#: here, so registering a suite *is* wiring it everywhere.
SUITES: Dict[str, dict] = {}


def register_suite(name: str, targets: List[str], baseline: str,
                   description: str) -> None:
    """Register one benchmark suite (targets + committed baseline file).

    Every suite must come through here — tests assert that each
    ``BENCH_*.json`` at the repository root belongs to exactly one
    registered suite and that every target file exists, so a forgotten
    or half-done registration is a test failure, not a silent omission.
    """
    if name == ALL_SUITES:
        raise ValueError(f"{ALL_SUITES!r} is the run-everything "
                         "pseudo-suite; pick another name")
    if name in SUITES:
        raise ValueError(f"benchmark suite {name!r} is already registered")
    if not targets or not baseline or not description:
        raise ValueError(f"suite {name!r} needs targets, a baseline file "
                         "and a description")
    SUITES[name] = {"targets": list(targets), "baseline": baseline,
                    "description": description}


register_suite(
    "engine",
    ["benchmarks/test_bench_sbp_engine.py",
     "benchmarks/test_bench_engine_batch.py",
     "benchmarks/test_bench_service.py"],
    "BENCH_sbp.json",
    "SBP/batched-LinBP/service kernels (the historical default)")
register_suite(
    "sql",
    ["benchmarks/test_bench_sql_backend.py"],
    "BENCH_sql.json",
    "SQLite execution backend (timings depend on the linked SQLite)")
register_suite(
    "stream",
    ["benchmarks/test_bench_stream.py"],
    "BENCH_stream.json",
    "streaming mixed update/query traffic with a p99 gate")
register_suite(
    "obs",
    ["benchmarks/test_bench_obs.py"],
    "BENCH_obs.json",
    "telemetry overhead (<5% over REPRO_OBS_DISABLED)")
register_suite(
    "tune",
    ["benchmarks/test_bench_tune.py"],
    "BENCH_tune.json",
    "ablation/autotune sweeps (determinism + no-worse-than-default "
    "gates)")

DEFAULT_SUITE = "engine"
DEFAULT_TARGETS = SUITES[DEFAULT_SUITE]["targets"]
DEFAULT_BASELINE = SUITES[DEFAULT_SUITE]["baseline"]


def suite_help() -> str:
    """The ``--suite`` help text, derived from the registry."""
    lines = "; ".join(
        f"'{name}' -> {suite['baseline']} ({suite['description']})"
        for name, suite in sorted(SUITES.items()))
    return (f"benchmark suite: default targets and baseline file "
            f"({lines}), or '{ALL_SUITES}' to run every suite in "
            f"sequence")
DEFAULT_THRESHOLD = 0.20
#: Absolute slowdown (seconds) a kernel must additionally exceed before the
#: percentage gate fails it — scheduler jitter routinely exceeds 20% on
#: sub-millisecond kernels, so tiny kernels are reported but never fatal.
DEFAULT_MIN_DELTA = 0.002


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def run_benchmarks(root: Path, targets: List[str],
                   smoke: bool = False) -> Dict[str, float]:
    """Run the pytest-benchmark targets; return kernel -> min seconds."""
    with tempfile.TemporaryDirectory() as scratch:
        json_path = Path(scratch) / "bench.json"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        command = [sys.executable, "-m", "pytest", *targets, "-q",
                   f"--benchmark-json={json_path}"]
        if smoke:
            env["REPRO_BENCH_SMOKE"] = "1"
            command += ["--bench-max-index", "1"]
        completed = subprocess.run(command, cwd=root, env=env)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {completed.returncode}); "
                             "fix the benchmarks before recording/comparing")
        payload = json.loads(json_path.read_text(encoding="utf-8"))
    kernels: Dict[str, float] = {}
    for record in payload.get("benchmarks", []):
        kernels[record["name"]] = float(record["stats"]["min"])
    if not kernels:
        raise SystemExit("no benchmark records produced - wrong targets?")
    return kernels


def record(baseline_path: Path, kernels: Dict[str, float],
           threshold: float, min_delta: float, targets: List[str]) -> None:
    baseline = {
        "comment": "Kernel benchmark baseline recorded by scripts/bench_record.py; "
                   "min wall-clock seconds per benchmark (machine-dependent - "
                   "re-record with --record when the benchmark host changes).",
        "threshold": threshold,
        "min_delta_seconds": min_delta,
        "targets": targets,
        "kernels": {name: {"min_seconds": seconds}
                    for name, seconds in sorted(kernels.items())},
    }
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n",
                             encoding="utf-8")
    print(f"recorded {len(kernels)} kernel baselines to {baseline_path}")
    for name, seconds in sorted(kernels.items()):
        print(f"  {name}: {seconds * 1e3:.3f} ms")


def load_baseline(baseline_path: Path) -> dict:
    """Load and validate a baseline file, exiting non-zero on any defect.

    Called *before* the (slow) benchmark run so a missing or malformed
    baseline fails immediately with an actionable message instead of a
    raw ``KeyError`` after minutes of benchmarking.
    """
    if not baseline_path.exists():
        raise SystemExit(f"{baseline_path} does not exist - run with --record "
                         "first to establish a baseline")
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SystemExit(f"{baseline_path} is not valid JSON ({error}); "
                         "re-record it with --record")
    if not isinstance(baseline, dict):
        raise SystemExit(f"{baseline_path} must contain a JSON object, "
                         f"got {type(baseline).__name__}; re-record it "
                         "with --record")
    kernels = baseline.get("kernels")
    if not isinstance(kernels, dict) or not kernels:
        raise SystemExit(f"{baseline_path} has no 'kernels' table - it is "
                         "not a bench_record baseline; re-record it with "
                         "--record")
    for name, entry in kernels.items():
        if not isinstance(entry, dict) or "min_seconds" not in entry:
            raise SystemExit(f"{baseline_path}: kernel {name!r} has no "
                             "'min_seconds' entry; re-record the baseline "
                             "with --record")
        try:
            float(entry["min_seconds"])
        except (TypeError, ValueError):
            raise SystemExit(f"{baseline_path}: kernel {name!r} has a "
                             f"non-numeric min_seconds "
                             f"({entry['min_seconds']!r}); re-record the "
                             "baseline with --record")
    return baseline


def compare(baseline: dict, kernels: Dict[str, float],
            threshold_override: float | None = None,
            min_delta_override: float | None = None) -> int:
    threshold = threshold_override if threshold_override is not None \
        else float(baseline.get("threshold", DEFAULT_THRESHOLD))
    min_delta = min_delta_override if min_delta_override is not None \
        else float(baseline.get("min_delta_seconds", DEFAULT_MIN_DELTA))
    recorded: Dict[str, Dict[str, float]] = baseline["kernels"]
    failures = 0
    print(f"comparing {len(recorded)} recorded kernels "
          f"(regression threshold: +{threshold:.0%}, "
          f"noise floor: {min_delta * 1e3:.1f} ms)")
    for name, entry in sorted(recorded.items()):
        old = float(entry["min_seconds"])
        if name not in kernels:
            failures += 1
            print(f"FAIL {name}: recorded in baseline but missing from the "
                  "current run (renamed or deleted? re-record if intended)")
            continue
        new = kernels[name]
        ratio = new / old if old else float("inf")
        regressed = ratio > 1.0 + threshold and new - old > min_delta
        noisy = ratio > 1.0 + threshold and not regressed
        verdict = "FAIL" if regressed else "ok  "
        if regressed:
            failures += 1
        suffix = " [within noise floor]" if noisy else ""
        print(f"{verdict} {name}: baseline {old * 1e3:.3f} ms, "
              f"now {new * 1e3:.3f} ms ({ratio:.2f}x){suffix}")
    for name in sorted(set(kernels) - set(recorded)):
        print(f"note {name}: not in the baseline (new kernel; "
              "run --record to start tracking it)")
    if failures:
        print(f"\n{failures} kernel(s) regressed beyond +{threshold:.0%}; "
              "optimise or re-record the baseline with --record if the "
              "slowdown is intended")
        return 1
    print("\nall recorded kernels within the regression threshold")
    return 0


def resolve_suites(name: str) -> List[str]:
    """Map a ``--suite`` value to suite names, exiting non-zero when unknown.

    ``all`` expands to every registered suite; anything else must name a
    suite exactly.  The error message lists the valid choices so a typo'd
    CI configuration fails with the fix in hand.
    """
    if name == ALL_SUITES:
        return sorted(SUITES)
    if name not in SUITES:
        valid = ", ".join(sorted(SUITES))
        raise SystemExit(f"unknown benchmark suite {name!r}; valid suites: "
                         f"{valid} (or '{ALL_SUITES}' to run every suite)")
    return [name]


def run_suite(arguments: argparse.Namespace, root: Path, name: str) -> int:
    """Record or compare one suite; return a process-style exit code."""
    suite = SUITES[name]
    baseline_path = Path(arguments.baseline if arguments.baseline is not None
                         else suite["baseline"])
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    baseline = None
    if not arguments.record and not arguments.smoke:
        # Validate the baseline *before* the slow benchmark run: a
        # missing file or malformed table exits non-zero right here.
        baseline = load_baseline(baseline_path)
    targets = list(arguments.targets)
    if not targets:
        targets = list(suite["targets"])
        if baseline is not None:
            # Compare against exactly what the baseline recorded, so a
            # baseline taken over custom targets is not spuriously failed
            # for kernels the default targets never run.
            recorded_targets = baseline.get("targets")
            if recorded_targets:
                targets = list(recorded_targets)
    kernels = run_benchmarks(root, targets, smoke=arguments.smoke)
    if arguments.smoke:
        print(f"smoke mode: {len(kernels)} benchmark(s) passed their "
              "ratio assertions at smoke sizes; absolute kernel baselines "
              "skipped (not meaningful on shared runners)")
        return 0
    if arguments.record:
        record(baseline_path, kernels,
               arguments.threshold if arguments.threshold is not None
               else DEFAULT_THRESHOLD,
               arguments.min_delta if arguments.min_delta is not None
               else DEFAULT_MIN_DELTA,
               targets)
        return 0
    return compare(baseline, kernels,
                   threshold_override=arguments.threshold,
                   min_delta_override=arguments.min_delta)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write a fresh baseline instead of comparing")
    parser.add_argument("--compare", action="store_true",
                        help="compare against the baseline (the default "
                             "mode; the flag exists so CI invocations are "
                             "explicit)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (REPRO_BENCH_SMOKE=1, "
                             "--bench-max-index 1) and gate only on the "
                             "benchmarks' ratio assertions - no absolute "
                             "baselines (for shared CI runners)")
    parser.add_argument("--suite", default=DEFAULT_SUITE,
                        help=suite_help())
    parser.add_argument("--baseline", default=None,
                        help="baseline file path (default: the suite's "
                             f"baseline, e.g. {DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float, default=None,
                        help="allowed slowdown fraction (default: 0.20 = 20%% "
                             "when recording; the baseline's recorded value "
                             "when comparing, unless overridden here)")
    parser.add_argument("--min-delta", type=float, default=None,
                        help="absolute slowdown in seconds a kernel must "
                             "also exceed to fail the gate (default: 0.002 "
                             "when recording; the baseline's recorded value "
                             "when comparing, unless overridden here)")
    parser.add_argument("targets", nargs="*", default=None,
                        help="pytest benchmark targets "
                             f"(default: {' '.join(DEFAULT_TARGETS)})")
    arguments = parser.parse_args(argv)
    if arguments.record and arguments.compare:
        parser.error("--record and --compare are mutually exclusive")
    if arguments.record and arguments.smoke:
        parser.error("--smoke baselines would be meaningless - record on a "
                     "quiet host at full size instead")
    suite_names = resolve_suites(arguments.suite)
    if len(suite_names) > 1 and (arguments.baseline or arguments.targets):
        parser.error("--suite all uses each suite's own baseline and "
                     "targets; drop --baseline and positional targets")
    root = repo_root()
    exit_code = 0
    for name in suite_names:
        if len(suite_names) > 1:
            print(f"=== suite: {name} ===")
        exit_code = max(exit_code, run_suite(arguments, root, name))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
