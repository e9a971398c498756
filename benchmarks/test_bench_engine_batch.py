"""Benchmark — batched engine throughput vs sequential ``linbp()`` calls.

The multi-tenant scenario of the ROADMAP: ten concurrent label-propagation
queries (distinct explicit-belief matrices) against one shared graph.  The
sequential baseline issues ten ordinary :func:`repro.core.linbp.linbp`
calls (each already benefiting from the engine's plan cache); the batched
path stacks all ten queries into one :func:`repro.engine.batch.run_batch`
call.

Two effects drive the speedup, and they dominate at different scales:

* on small graphs the per-call overhead (workspace setup, validation,
  per-iteration bookkeeping) dominates and batching amortises it —
  roughly 2–3× on Kronecker graphs #1–#2;
* on larger graphs the batched SpMM amortises the adjacency traversal
  over all queries, but the dense per-query work does not shrink, so the
  gain tapers to ~1.2–1.5×.

The hard assertion (≥ 2×) therefore runs on the small end of the suite;
the larger sizes are reported in the table without a speedup requirement.
The two arms are timed in interleaved pairs (:func:`benchmarks.conftest
.time_pairs`) and the gate reads the best pair ratio.  Batched and
sequential beliefs must agree to 1e-10 at every size.

``test_engine_cg_against_jacobi`` gates the conjugate-gradient solve
``run_batch`` picks near the Lemma 8 limit: on solo-deep's graph and
coupling (Kronecker #3 at 0.9 of the limit) it must beat the Eq. 6
sweeps today's max-change rule needs by at least 2.5× in the best pair,
and stay within 1e-10 of a 600-sweep Jacobi reference.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from benchmarks.conftest import attach_table, repeated, time_pairs
from repro.core.convergence import max_epsilon_exact
from repro.core.linbp import linbp
from repro.engine import BatchWorkspace, clear_plan_cache, get_plan, run_batch
from repro.experiments.runner import ResultTable

#: The CI bench-smoke job (scripts/bench_record.py --smoke) relaxes the
#: speedup gate: shared runners batch just as well but time noisily.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_QUERIES = 10
EPSILON = 0.001
ASSERTED_SPEEDUP = 1.4 if SMOKE else 2.0
ASSERTED_INDEX = 1  # the hard ≥2x claim runs on Kronecker graph #1
#: Interleaved (sequential, batched) pairs per workload.
NUM_PAIRS = 10
#: Batched runs per recorded round: one takes about 0.3 ms, so a round
#: of 40 lifts the recorded minimum above 10 ms, where a 20% regression
#: clears the baseline's 2 ms noise floor.
BASELINE_REPETITIONS = 40

#: The CG gate runs solo-deep's graph (Kronecker #3) at 0.9 of the Lemma 8
#: limit; smoke runs shrink it to #1 and check equivalence only.
CG_INDEX = 1 if SMOKE else 3
CG_LIMIT_FRACTION = 0.9
CG_ASSERTED_SPEEDUP = 2.5
#: Jacobi sweeps of the reference the CG answer is held to (1e-10).
CG_REFERENCE_SWEEPS = 600
#: CG solves per recorded round: about 1.8 ms each on #3, so a round of
#: eight stays above 10 ms, where a 20% regression clears the 2 ms floor.
CG_BASELINE_REPETITIONS = 8


def _query_mix(workload, num_queries: int) -> List[np.ndarray]:
    """Ten distinct explicit-belief matrices over one workload's graph."""
    scales = np.random.default_rng(7).uniform(0.5, 1.5, num_queries)
    return [workload.explicit * scale for scale in scales]


def _measure(workload):
    coupling = workload.coupling.scaled(EPSILON)
    queries = _query_mix(workload, NUM_QUERIES)
    plan = get_plan(workload.graph, coupling)
    # Warm both paths (plan cache, allocator, CPU caches).
    sequential_results = [linbp(workload.graph, coupling, explicit)
                          for explicit in queries]
    batched_results = run_batch(plan, queries)
    max_error = max(
        float(np.abs(batch.beliefs - sequential.beliefs).max())
        for batch, sequential in zip(batched_results, sequential_results))
    times = time_pairs(
        lambda: [linbp(workload.graph, coupling, explicit)
                 for explicit in queries],
        lambda: run_batch(plan, queries), pairs=NUM_PAIRS)
    return times, max_error


def test_engine_batch_throughput(benchmark, synthetic_workloads):
    """Batched 10-query propagation vs 10 sequential linbp() calls."""
    clear_plan_cache()
    table = ResultTable(
        f"Engine batch — {NUM_QUERIES} queries, batched vs sequential LinBP")
    asserted = None
    asserted_batch = None
    for workload in synthetic_workloads:
        times, max_error = _measure(workload)
        if workload.index == ASSERTED_INDEX:
            asserted = times
            coupling = workload.coupling.scaled(EPSILON)
            plan = get_plan(workload.graph, coupling)
            queries = _query_mix(workload, NUM_QUERIES)
            asserted_batch = lambda: run_batch(plan, queries)  # noqa: E731
        table.add_row(
            graph=workload.index,
            nodes=workload.num_nodes,
            edges=workload.num_edges,
            sequential_ms=min(times.baseline) * 1e3,
            batched_ms=min(times.candidate) * 1e3,
            **times.columns(),
            max_belief_error=max_error,
        )
        assert max_error < 1e-10, \
            f"batched beliefs diverge from sequential on graph #{workload.index}"
    assert asserted is not None, \
        f"workload #{ASSERTED_INDEX} missing from the suite"
    # The benchmark statistic itself is the batched run on the asserted
    # graph, BASELINE_REPETITIONS times per round.
    benchmark.pedantic(repeated(asserted_batch, BASELINE_REPETITIONS),
                       rounds=5, iterations=1)
    attach_table(benchmark, table)
    assert asserted.best >= ASSERTED_SPEEDUP, (
        f"batched propagation only {asserted.best:.2f}x faster than "
        f"sequential on graph #{ASSERTED_INDEX} in the best of {NUM_PAIRS} "
        f"interleaved pairs (need >= {ASSERTED_SPEEDUP}x); "
        f"{asserted.describe()}")


def _max_change_sweeps(plan, explicit, tolerance=1e-10, limit=10_000):
    """Sweeps Eq. 6 needs before its max-change stop, driven step by step."""
    workspace = BatchWorkspace(plan, 1)
    workspace.load([explicit])
    for sweep in range(1, limit + 1):
        if workspace.step()[0] < tolerance:
            return sweep
    raise AssertionError(f"Jacobi did not stop within {limit} sweeps")


def test_engine_cg_against_jacobi(benchmark, synthetic_workloads):
    """CG vs the Jacobi sweeps the max-change rule needs, near the limit."""
    clear_plan_cache()
    workload = next(w for w in synthetic_workloads if w.index == CG_INDEX)
    # Solo-deep's coupling: 0.9 of the limit, four significant digits.
    scale = CG_LIMIT_FRACTION * max_epsilon_exact(workload.graph,
                                                  workload.coupling)
    coupling = workload.coupling.scaled(float(f"{scale:.4g}"))
    plan = get_plan(workload.graph, coupling)
    explicit = workload.explicit
    sweeps = _max_change_sweeps(plan, explicit)
    (solved,) = run_batch(plan, [explicit])
    (reference,) = run_batch(plan, [explicit],
                             num_iterations=CG_REFERENCE_SWEEPS)
    max_error = float(np.abs(solved.beliefs - reference.beliefs).max())
    assert solved.extra["solver"] == "cg" and solved.converged
    assert max_error < 1e-10, \
        f"CG beliefs {max_error:.2e} from the {CG_REFERENCE_SWEEPS}-sweep " \
        f"Jacobi reference"
    table = ResultTable(
        f"Engine CG vs Jacobi — Kronecker #{CG_INDEX} at "
        f"{CG_LIMIT_FRACTION} of the Lemma 8 limit, one query")
    row = dict(graph=CG_INDEX, nodes=workload.num_nodes,
               radius=plan.update_spectral_radius(), jacobi_sweeps=sweeps,
               cg_steps=solved.iterations,
               error_bound=solved.extra["error_bound"],
               max_belief_error=max_error)
    times = None
    if not SMOKE:
        times = time_pairs(
            lambda: run_batch(plan, [explicit], num_iterations=sweeps),
            lambda: run_batch(plan, [explicit]), pairs=NUM_PAIRS)
        row.update(jacobi_ms=min(times.baseline) * 1e3,
                   cg_ms=min(times.candidate) * 1e3, **times.columns())
    table.add_row(**row)
    benchmark.pedantic(
        repeated(lambda: run_batch(plan, [explicit]),
                 CG_BASELINE_REPETITIONS), rounds=5, iterations=1)
    attach_table(benchmark, table)
    if times is not None:
        assert times.best >= CG_ASSERTED_SPEEDUP, (
            f"CG only {times.best:.2f}x faster than {sweeps} Jacobi sweeps "
            f"in the best of {NUM_PAIRS} interleaved pairs (need >= "
            f"{CG_ASSERTED_SPEEDUP}x); {times.describe()}")
