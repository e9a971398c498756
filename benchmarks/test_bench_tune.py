"""Benchmark — the ablation/autotune sweep, gated on its own contracts.

Two kernels:

* ``test_tune_measure_config`` — one full measured drive of the default
  configuration through :func:`repro.tune.runner.measure_config` (the
  unit of work every sweep repeats ~20×).  Gates that the metrics
  really come off the :mod:`repro.obs` registries: request/query/update
  counts must match the workload and engine sweeps must be non-zero.
* ``test_tune_ablation_sweep`` — a complete one-factor ablation plus
  coordinate-descent selection.  Gates the subsystem's two headline
  contracts: **determinism** (a second sweep over an identically-seeded
  workload produces the same run IDs, statuses and report row order)
  and **no-worse-than-default** (the selected configuration's measured
  p99 and throughput weakly dominate the baseline's on the same
  harness runs), plus the artifact round-trip through
  :meth:`PropagationService.from_config`.

Under ``REPRO_BENCH_SMOKE=1`` the graph and the per-client request
count shrink for shared CI runners.  Recorded via
``scripts/bench_record.py --suite tune`` into ``BENCH_tune.json``.
"""

from __future__ import annotations

import os

from benchmarks.conftest import attach_table
from repro.coupling import synthetic_residual_matrix
from repro.experiments.runner import ResultTable
from repro.graphs import random_graph
from repro.service import PropagationService
from repro.tune import (
    AblationRunner,
    build_report,
    make_mixed_workload,
    measure_config,
    select_config,
    service_config_space,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_NODES = 100 if SMOKE else 200
EDGE_PROBABILITY = 0.08
EPSILON = 0.005
NUM_CLIENTS = 4 if SMOKE else 6
REQUESTS_PER_CLIENT = 3 if SMOKE else 4
MAX_ITERATIONS = 20
SEED = 0
RUN_TIMEOUT_SECONDS = 120.0


def _workload():
    graph = random_graph(NUM_NODES, EDGE_PROBABILITY, seed=7)
    coupling = synthetic_residual_matrix(epsilon=EPSILON)
    return make_mixed_workload(graph, coupling, seed=SEED,
                               num_clients=NUM_CLIENTS,
                               requests_per_client=REQUESTS_PER_CLIENT,
                               max_iterations=MAX_ITERATIONS)


def test_tune_measure_config(benchmark):
    """One measured drive of the default config; registry-sourced gates."""
    workload = _workload()
    default = service_config_space().default_config()

    metrics = measure_config(workload, default)
    updates = sum(1 for r in workload.requests if r["op"] == "update")
    assert metrics.requests == len(workload.requests)
    assert metrics.updates == updates
    assert metrics.queries == len(workload.requests) - updates
    assert metrics.sweeps > 0, "engine sweep counter never moved"
    assert metrics.cache_hits + metrics.cache_misses == metrics.queries
    assert metrics.p99_seconds > 0 and metrics.throughput_rps > 0

    table = ResultTable(
        f"Tune — one measured drive, {len(workload.requests)} requests, "
        f"{NUM_CLIENTS} clients")
    table.add_row(nodes=NUM_NODES, requests=metrics.requests,
                  queries=metrics.queries, sweeps=metrics.sweeps,
                  p99_ms=metrics.p99_seconds * 1e3,
                  throughput_rps=metrics.throughput_rps)
    benchmark.pedantic(lambda: measure_config(workload, default),
                       rounds=3, iterations=1)
    attach_table(benchmark, table)


def test_tune_ablation_sweep(benchmark):
    """Full sweep + selection: determinism and no-worse-than-default."""
    runner = AblationRunner(_workload(),
                            run_timeout_seconds=RUN_TIMEOUT_SECONDS)
    baseline, runs = runner.run_ablation()
    assert baseline.ok, baseline.error
    report = build_report(baseline, runs)

    # Determinism: an identically-seeded second sweep must produce the
    # same run IDs in the same order with the same statuses, and the
    # same set of measured-vs-skipped report rows.  (Rank order depends
    # on wall-clock timings, so it is asserted in tests/tune with an
    # injected deterministic measure, not here.)
    rerun = AblationRunner(_workload(),
                           run_timeout_seconds=RUN_TIMEOUT_SECONDS)
    baseline2, runs2 = rerun.run_ablation()
    assert baseline2.run_id == baseline.run_id
    assert [(p, v, r.run_id, r.status == "skipped")
            for p, v, r in runs2] == \
           [(p, v, r.run_id, r.status == "skipped") for p, v, r in runs]

    # No-worse-than-default: coordinate descent only accepts Pareto
    # dominators, so the selected config's measured p99/throughput must
    # weakly dominate the baseline's.  Reuses the first runner's
    # memoised records — only accepted-move follow-ups re-measure.
    selection = select_config(runner, rounds=1, margin=0.02)
    assert selection.selected.metrics.p99_seconds \
        <= selection.baseline.metrics.p99_seconds
    assert selection.selected.metrics.throughput_rps \
        >= selection.baseline.metrics.throughput_rps

    # The emitted artifact must round-trip through the consumption path.
    service = PropagationService.from_config(selection.artifact())
    assert service.default_spec is not None

    measured = sum(1 for _, _, r in runs if r.ok)
    skipped = sum(1 for _, _, r in runs if r.status == "skipped")
    table = ResultTable(
        f"Tune — ablation sweep, {len(runs)} one-knob variants")
    table.add_row(nodes=NUM_NODES, variants=len(runs), measured=measured,
                  skipped=skipped,
                  top_knob=report.ranking()[0],
                  baseline_p99_ms=baseline.metrics.p99_seconds * 1e3,
                  selected_p99_ms=(
                      selection.selected.metrics.p99_seconds * 1e3),
                  improved=selection.improved)
    # The benchmark statistic is one fresh full one-factor sweep.
    benchmark.pedantic(
        lambda: AblationRunner(
            _workload(),
            run_timeout_seconds=RUN_TIMEOUT_SECONDS).run_ablation(),
        rounds=1, iterations=1)
    attach_table(benchmark, table)
