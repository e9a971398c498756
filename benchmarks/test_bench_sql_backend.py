"""Benchmark — LinBP executed inside a real SQL engine.

The paper's Section 5.3 claim is that LinBP runs *inside an RDBMS* with
plain joins and aggregates.  This benchmark prices that claim: the
relational program (one ``UPDATE … FROM`` join-aggregate per iteration)
executed by the stdlib SQLite engine on the Fig. 6a Kronecker workloads.

Gate: **equivalence** — SQLite must match the in-memory
:func:`repro.engine.batch.run_batch` beliefs to 1e-10 at every size (the
benchmark-level restatement of the cross-backend differential suite).
The timed statistic is SQLite LinBP on Kronecker graph #1.

Iteration counts are fixed (``num_iterations``) so every run does
identical work regardless of convergence behaviour.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import attach_table
from repro.engine import get_plan, run_batch
from repro.experiments.runner import ResultTable
from repro.relational import SQLiteBackend

EPSILON = 0.001
NUM_ITERATIONS = 5
TIMED_INDEX = 1  # the benchmark statistic runs on Kronecker graph #1


def _best_of(function, repetitions: int = 3) -> float:
    best = np.inf
    for _ in range(repetitions):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_sql_backend_linbp(benchmark, synthetic_workloads):
    """SQLite-executed LinBP: equal to run_batch, timed on graph #1."""
    table = ResultTable(
        f"SQL backend — {NUM_ITERATIONS} LinBP iterations on SQLite")
    timed_workload = None
    for workload in synthetic_workloads:
        coupling = workload.coupling.scaled(EPSILON)
        reference = run_batch(get_plan(workload.graph, coupling),
                              [workload.explicit],
                              num_iterations=NUM_ITERATIONS)[0]
        with SQLiteBackend() as backend:
            backend.load_graph(workload.graph, coupling, workload.explicit)
            result = backend.run_linbp(num_iterations=NUM_ITERATIONS)
            max_error = float(np.abs(result.beliefs - reference.beliefs).max())
            seconds = _best_of(
                lambda: backend.run_linbp(num_iterations=NUM_ITERATIONS))
        if workload.index == TIMED_INDEX:
            timed_workload = workload
        table.add_row(
            graph=workload.index,
            nodes=workload.num_nodes,
            edges=workload.num_edges,
            sqlite_ms=seconds * 1e3,
            max_belief_error=max_error,
        )
        assert max_error < 1e-10, (
            f"backend beliefs diverge from run_batch on graph "
            f"#{workload.index} (max error {max_error:.3e})")
    assert timed_workload is not None, \
        f"workload #{TIMED_INDEX} missing from the suite"
    coupling = timed_workload.coupling.scaled(EPSILON)
    with SQLiteBackend() as backend:
        backend.load_graph(timed_workload.graph, coupling,
                           timed_workload.explicit)
        benchmark.pedantic(
            lambda: backend.run_linbp(num_iterations=NUM_ITERATIONS),
            rounds=5, iterations=1)
    attach_table(benchmark, table)
