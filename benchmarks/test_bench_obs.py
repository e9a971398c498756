"""Benchmark — telemetry overhead on the hot query path.

The observability layer's core promise is *near-zero cost*: every span
and counter call starts with one module-level flag check, so an
instrumented engine under ``REPRO_OBS_DISABLED=1`` must run the query
path at effectively the uninstrumented speed, and even **enabled**
telemetry must stay within a few percent (the span sites sit outside
the inner SpMM kernels).

Both states are measured in one process by flipping
:func:`repro.obs.set_obs_enabled` around identical batched-engine runs;
min-of-N timing discards scheduler noise.  The gate asserts

* ``disabled / enabled`` overhead below :data:`MAX_OVERHEAD` on the
  asserted Kronecker workload (<5% at full size, per the observability
  issue; relaxed on smoke-sized runs where a single sweep is tens of
  microseconds and the ratio is dominated by timer noise);
* exact belief agreement between the enabled and disabled runs —
  telemetry must never perturb the arithmetic.

``scripts/bench_record.py --suite obs`` records the absolute timings
into ``BENCH_obs.json`` so a creeping slowdown of the *instrumented*
path is caught even if both sides slow down together.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

from benchmarks.conftest import attach_table, repeated
from repro.engine import clear_plan_cache, get_plan, run_batch
from repro.experiments.runner import ResultTable
from repro.obs import obs_enabled, set_obs_enabled

#: The CI obs-smoke job (scripts/bench_record.py --smoke --suite obs)
#: runs tiny workloads where one sweep is microseconds and the ratio is
#: timer noise; the full-size gate is the issue's <5%.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_QUERIES = 10
EPSILON = 0.001
MAX_OVERHEAD = 0.25 if SMOKE else 0.05
#: The <5% gate runs on the largest default workload: a span covers a
#: whole sweep, so its fixed cost amortises with graph size, and tiny
#: graphs (sweeps of tens of microseconds) overstate it structurally.
ASSERTED_INDEX = 1 if SMOKE else 3
#: Instrumented batches per recorded round: one takes about 4.3 ms on
#: Kronecker #3, so a round of 4 lifts the recorded minimum above 10 ms,
#: where a 20% regression clears the baseline's 2 ms noise floor.
BASELINE_REPETITIONS = 4
#: Disabled spans per recorded round (about 0.33 µs each): above 10 ms.
SPANS_PER_ROUND = 40_000


def _query_mix(workload, num_queries: int) -> List[np.ndarray]:
    scales = np.random.default_rng(7).uniform(0.5, 1.5, num_queries)
    return [workload.explicit * scale for scale in scales]


def _measure(workload, repetitions: int = 11):
    """(overhead ratio − 1, enabled s, disabled s, max |Δbelief|).

    The two states are timed in *interleaved* pairs (disabled sample,
    then enabled sample, back to back) and the overhead is the **minimum
    over the per-pair ratios**: both samples of the winning pair ran
    under near-identical machine state, so frequency scaling, a noisy
    neighbour or a GC pause inflates individual pairs but cannot fake a
    systematic gap.  True overhead lower-bounds every pair's ratio, so
    the min converges on it from above.  Timing the two states as
    sequential blocks (or taking independent mins) lets machine-state
    drift between the blocks masquerade as overhead — that was measured
    flaking past the gate on shared hardware.
    """
    coupling = workload.coupling.scaled(EPSILON)
    plan = get_plan(workload.graph, coupling)
    queries = _query_mix(workload, NUM_QUERIES)
    assert obs_enabled(), "benchmark requires telemetry on at entry"
    enabled_results = run_batch(plan, queries)  # warm both paths
    try:
        set_obs_enabled(False)
        disabled_results = run_batch(plan, queries)
        best_ratio = float("inf")
        disabled_seconds = enabled_seconds = float("inf")
        for _ in range(repetitions):
            set_obs_enabled(False)
            start = time.perf_counter()
            run_batch(plan, queries)
            disabled_sample = time.perf_counter() - start
            set_obs_enabled(True)
            start = time.perf_counter()
            run_batch(plan, queries)
            enabled_sample = time.perf_counter() - start
            best_ratio = min(best_ratio, enabled_sample / disabled_sample)
            disabled_seconds = min(disabled_seconds, disabled_sample)
            enabled_seconds = min(enabled_seconds, enabled_sample)
    finally:
        set_obs_enabled(True)
    max_error = max(
        float(np.abs(on.beliefs - off.beliefs).max())
        for on, off in zip(enabled_results, disabled_results))
    return best_ratio - 1.0, enabled_seconds, disabled_seconds, max_error


def test_obs_overhead_on_query_path(benchmark, synthetic_workloads):
    """Instrumented vs REPRO_OBS_DISABLED batched propagation."""
    clear_plan_cache()
    table = ResultTable(
        f"Telemetry overhead — {NUM_QUERIES}-query batch, "
        "enabled vs disabled")
    asserted_overhead = None
    asserted_run = None
    for workload in synthetic_workloads:
        overhead, enabled_seconds, disabled_seconds, max_error = \
            _measure(workload)
        if workload.index == ASSERTED_INDEX:
            asserted_overhead = overhead
            coupling = workload.coupling.scaled(EPSILON)
            plan = get_plan(workload.graph, coupling)
            queries = _query_mix(workload, NUM_QUERIES)
            asserted_run = lambda: run_batch(plan, queries)  # noqa: E731
        table.add_row(
            graph=workload.index,
            nodes=workload.num_nodes,
            edges=workload.num_edges,
            enabled_ms=enabled_seconds * 1e3,
            disabled_ms=disabled_seconds * 1e3,
            overhead_pct=overhead * 100.0,
            max_belief_error=max_error,
        )
        assert max_error == 0.0, (
            f"telemetry perturbed beliefs on graph #{workload.index} "
            f"(max error {max_error:g})")
    if asserted_overhead is None:
        # The suite was capped below ASSERTED_INDEX (e.g. a manual
        # --bench-max-index 1 run); gate on the largest workload present.
        asserted_overhead = overhead
        coupling = workload.coupling.scaled(EPSILON)
        plan = get_plan(workload.graph, coupling)
        queries = _query_mix(workload, NUM_QUERIES)
        asserted_run = lambda: run_batch(plan, queries)  # noqa: E731
    # The recorded kernel statistic is the instrumented (enabled) run,
    # BASELINE_REPETITIONS times per round.
    benchmark.pedantic(repeated(asserted_run, BASELINE_REPETITIONS),
                       rounds=5, iterations=1)
    attach_table(benchmark, table)
    assert asserted_overhead <= MAX_OVERHEAD, (
        f"telemetry adds {asserted_overhead:.1%} to the query path "
        f"(gate: {MAX_OVERHEAD:.0%})")


def test_obs_disabled_skips_span_allocation(benchmark):
    """Microbenchmark: a disabled span is one flag check, no allocation."""
    from repro.obs import span
    from repro.obs.trace import _NOOP

    def disabled_spans():
        for _ in range(SPANS_PER_ROUND):
            with span("bench.noop"):
                pass

    try:
        set_obs_enabled(False)
        assert span("bench.noop", tag=1) is _NOOP
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            disabled_spans()
            samples.append(time.perf_counter() - start)
        benchmark.pedantic(disabled_spans, rounds=3, iterations=1)
    finally:
        set_obs_enabled(True)
    # Under a microsecond per disabled span even on slow shared runners.
    per_span = min(samples) / SPANS_PER_ROUND
    assert per_span < 1e-6, (
        f"disabled span costs {per_span * 1e9:.0f} ns; "
        "the no-op fast path has regressed")
