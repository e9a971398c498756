"""Benchmark — vectorised SBP engine vs the pre-refactor implementation.

Two claims from the vectorised-SBP issue are asserted here:

* **≥ 5× for ``SBP.run`` + ``add_explicit_beliefs``** on a ≥ 50 k-node
  synthetic graph against the frozen pre-refactor implementation
  (:mod:`repro.core._sbp_reference`: Python-set BFS, ``directed_edges()``
  DAG construction, per-node incremental loops).  The vectorised timing
  *includes* building the geodesic plan from scratch — the plan cache is
  cleared inside every repetition — so the speedup is the kernel win,
  not the cache win.
* **≥ 2× throughput for a 10-query ``run_sbp_batch``** over sequential
  ``SBP.run`` calls sharing the same labeled set (both paths enjoy the
  plan cache; the batch additionally amortises the per-level sweeps and
  the per-call bookkeeping), with batched ≡ sequential to 1e-10.

The equivalence assertions (vectorised ≡ reference, batched ≡ sequential,
both to 1e-10) run on every measurement, so the speedups can never be
bought with a numerically different algorithm.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from benchmarks.conftest import attach_table, repeated, time_pairs
from repro.core import SBP
from repro.core._sbp_reference import ReferenceSBP
from repro.coupling import synthetic_residual_matrix
from repro.datasets.synthetic_labels import (
    sample_explicit_beliefs,
    sample_explicit_nodes,
)
from repro.engine import clear_plan_cache, get_sbp_plan, run_sbp_batch
from repro.experiments.runner import ResultTable
from repro.graphs import grid_graph

#: ``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job) shrinks the grids and
#: relaxes the speedup gates: shared runners vectorise just as well but
#: time far too noisily for the tight laptop-calibrated thresholds.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

GRID_SIDE = 64 if SMOKE else 224   # 224 x 224 = 50 176 nodes (>= 50 k)
EXPLICIT_FRACTION = 0.01
UPDATE_FRACTION = 0.002
RUN_UPDATE_SPEEDUP = 2.0 if SMOKE else 5.0
BATCH_QUERIES = 10
BATCH_GRID_SIDE = 40 if SMOKE else 60  # deep levels, overhead-bound regime
BATCH_SPEEDUP = 1.3 if SMOKE else 2.0
#: Interleaved (baseline, candidate) pairs each gate is judged on.
NUM_PAIRS = 10
#: Batched runs per recorded round: one takes about 2 ms, so a round of
#: 6 lifts the recorded minimum above 10 ms, where a 20% regression
#: clears the baseline's 2 ms noise floor.
BATCH_BASELINE_REPETITIONS = 6


def _grid_workload(side: int, seed: int = 0):
    graph = grid_graph(side, side)
    coupling = synthetic_residual_matrix(epsilon=0.5)
    nodes = sample_explicit_nodes(graph.num_nodes, EXPLICIT_FRACTION, seed=seed)
    explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes, seed=seed + 1)
    update_nodes = sample_explicit_nodes(graph.num_nodes, UPDATE_FRACTION,
                                         seed=seed + 2, exclude=nodes.tolist())
    update = sample_explicit_beliefs(graph.num_nodes, 3, update_nodes,
                                     seed=seed + 3)
    return graph, coupling, explicit, update


def test_sbp_run_and_update_speedup(benchmark):
    """Vectorised run + ΔSBP vs the pre-refactor loops on a 50 k-node grid."""
    clear_plan_cache()
    graph, coupling, explicit, update = _grid_workload(GRID_SIDE)

    def reference_pass():
        runner = ReferenceSBP(graph, coupling)
        runner.run(explicit)
        runner.add_explicit_beliefs(update)
        return runner

    def vectorized_pass():
        clear_plan_cache()  # charge the full plan build to every repetition
        runner = SBP(graph, coupling)
        runner.run(explicit)
        runner.add_explicit_beliefs(update)
        return runner

    reference = reference_pass()
    vectorized = vectorized_pass()
    max_error = float(np.abs(vectorized.beliefs - reference.beliefs).max())
    assert max_error < 1e-10, \
        f"vectorised SBP diverges from the reference (max error {max_error})"
    assert np.array_equal(vectorized.geodesic_numbers,
                          reference.geodesic_numbers)

    times = time_pairs(reference_pass, vectorized_pass, pairs=NUM_PAIRS)
    table = ResultTable("SBP engine — run + add_explicit_beliefs, "
                        f"{graph.num_nodes} nodes, {NUM_PAIRS} interleaved "
                        "pairs")
    table.add_row(nodes=graph.num_nodes, edges=graph.num_directed_edges,
                  labeled=int(np.count_nonzero(np.any(explicit != 0, axis=1))),
                  reference_s=min(times.baseline),
                  vectorized_s=min(times.candidate),
                  **times.columns(), max_belief_error=max_error)
    benchmark.pedantic(vectorized_pass, rounds=7, warmup_rounds=1,
                       iterations=1)
    attach_table(benchmark, table)
    assert times.best >= RUN_UPDATE_SPEEDUP, (
        f"vectorised SBP only {times.best:.1f}x faster than the "
        f"pre-refactor implementation in the best of {NUM_PAIRS} "
        f"interleaved pairs (need >= {RUN_UPDATE_SPEEDUP}x); "
        f"{times.describe()}")


def test_sbp_batch_throughput(benchmark):
    """10-query run_sbp_batch vs 10 sequential SBP.run calls, shared labels."""
    clear_plan_cache()
    graph, coupling, explicit, _ = _grid_workload(BATCH_GRID_SIDE, seed=4)
    # Keep only a handful of labels: deep geodesic levels stress the
    # per-level sweep that batching amortises.
    labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0][:5]
    base = np.zeros_like(explicit)
    base[labeled] = explicit[labeled]
    scales = np.random.default_rng(11).uniform(0.5, 1.5, BATCH_QUERIES)
    queries: List[np.ndarray] = [base * scale for scale in scales]

    def sequential():
        return [SBP(graph, coupling).run(query) for query in queries]

    def batched():
        return run_sbp_batch(graph, coupling, queries)

    sequential_results = sequential()   # also warms the shared plan
    batched_results = batched()
    max_error = max(
        float(np.abs(batch.beliefs - single.beliefs).max())
        for batch, single in zip(batched_results, sequential_results))
    assert max_error < 1e-10, \
        f"batched SBP diverges from sequential (max error {max_error})"

    times = time_pairs(sequential, batched, pairs=NUM_PAIRS)
    table = ResultTable(f"SBP engine — {BATCH_QUERIES}-query batch vs "
                        f"sequential runs, {NUM_PAIRS} interleaved pairs")
    table.add_row(nodes=graph.num_nodes, queries=BATCH_QUERIES,
                  levels=int(get_sbp_plan(graph, labeled).max_level),
                  sequential_ms=min(times.baseline) * 1e3,
                  batched_ms=min(times.candidate) * 1e3,
                  **times.columns(), max_belief_error=max_error)
    # The recorded statistic: BATCH_BASELINE_REPETITIONS batches a round.
    benchmark.pedantic(repeated(batched, BATCH_BASELINE_REPETITIONS),
                       rounds=15, warmup_rounds=2, iterations=1)
    attach_table(benchmark, table)
    assert times.best >= BATCH_SPEEDUP, (
        f"batched SBP only {times.best:.2f}x faster than sequential runs "
        f"in the best of {NUM_PAIRS} interleaved pairs (need >= "
        f"{BATCH_SPEEDUP}x); {times.describe()}")
