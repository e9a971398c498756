"""Experiments E3/E4 — Fig. 7a–c: scalability of BP, LinBP, SBP, ΔSBP.

The paper's timing experiments run each method for 5 iterations (SBP until
termination) on the Kronecker suite and report wall-clock times:

* **Fig. 7a** (main memory): LinBP is orders of magnitude faster than BP and
  scales nearly linearly in the number of edges.
* **Fig. 7b** (SQL/disk-bound): relational SBP is about an order of magnitude
  faster than relational LinBP; incremental ΔSBP (updating 1 ‰ of the nodes)
  is another factor faster.
* **Fig. 7c** combines both into one table (the ratios in the last columns
  are the headline numbers: "LinBP 600x faster than BP", "SBP 10x faster than
  LinBP in SQL", "ΔSBP ~2.5x faster than SBP").

:func:`run_memory_scalability` and :func:`run_relational_scalability`
reproduce the two panels; :func:`run_timing_table` joins them into Fig. 7c.
The in-memory implementations stand in for the paper's JAVA/Parallel Colt
code and the stdlib SQLite backend for PostgreSQL (see
docs/architecture.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.bp import belief_propagation
from repro.core.linbp import linbp
from repro.core.sbp import SBP
from repro.datasets.kronecker_suite import SyntheticWorkload, kronecker_suite
from repro.experiments.runner import ResultTable, sbp_from_scratch, timed
from repro.relational import SQLiteBackend

__all__ = [
    "run_memory_scalability",
    "run_relational_scalability",
    "run_timing_table",
]

#: Coupling scale used by all timing runs; well inside the convergence region
#: of every generated graph (the paper uses Lemma 9 to pick it).
DEFAULT_EPSILON = 0.001

#: Fixed iteration budget used by the paper's timing experiments.
TIMING_ITERATIONS = 5


def _workloads(max_index: int, seed: int) -> List[SyntheticWorkload]:
    return kronecker_suite(max_index=max_index, seed=seed)


def run_memory_scalability(max_index: int = 4, epsilon: float = DEFAULT_EPSILON,
                           include_bp: bool = True, seed: int = 0,
                           workloads: Optional[Sequence[SyntheticWorkload]] = None) -> ResultTable:
    """Fig. 7a: in-memory BP vs LinBP vs SBP/ΔSBP runtimes.

    Each row reports the number of edges, the wall-clock seconds for 5
    iterations of BP and of LinBP, the single sweep of SBP (through the
    engine's cached :class:`~repro.engine.sbp_plan.SBPPlan`), the
    incremental ΔSBP applying the 1 ‰ update workload, and the ratios.
    """
    table = ResultTable("Fig. 7a — main-memory scalability (5 iterations)")
    for workload in (workloads or _workloads(max_index, seed)):
        coupling = workload.coupling.scaled(epsilon)
        _, linbp_seconds = timed(lambda: linbp(workload.graph, coupling,
                                               workload.explicit,
                                               num_iterations=TIMING_ITERATIONS))
        sbp_runner = SBP(workload.graph, coupling)
        _, sbp_seconds = timed(lambda: sbp_runner.run(workload.explicit))
        # ΔSBP: apply the 1 permille update workload onto the SBP state.
        delta_result, delta_seconds = timed(
            lambda: sbp_runner.add_explicit_beliefs(workload.explicit_update))
        row: Dict[str, object] = {
            "index": workload.index,
            "nodes": workload.num_nodes,
            "edges": workload.num_edges,
            "linbp_seconds": linbp_seconds,
            "sbp_seconds": sbp_seconds,
            "delta_sbp_seconds": delta_seconds,
            "delta_nodes_updated": delta_result.extra.get("nodes_updated"),
            "linbp_over_sbp": linbp_seconds / sbp_seconds if sbp_seconds else float("inf"),
        }
        if include_bp:
            _, bp_seconds = timed(lambda: belief_propagation(
                workload.graph, coupling, workload.explicit,
                max_iterations=TIMING_ITERATIONS, tolerance=1e-300))
            row["bp_seconds"] = bp_seconds
            row["bp_over_linbp"] = bp_seconds / linbp_seconds if linbp_seconds else float("inf")
        table.add_row(**row)
    return table


def run_relational_scalability(max_index: int = 3, epsilon: float = DEFAULT_EPSILON,
                               seed: int = 0,
                               workloads: Optional[Sequence[SyntheticWorkload]] = None) -> ResultTable:
    """Fig. 7b: relational LinBP vs SBP vs ΔSBP runtimes on SQLite.

    A from-scratch run (LinBP for 5 iterations, SBP until termination)
    includes loading the relations; ΔSBP starts from the SBP result on the
    5 % explicit beliefs and times only Algorithm 3 applying the 1 ‰
    update workload.
    """
    table = ResultTable("Fig. 7b — relational (SQL) scalability")
    for workload in (workloads or _workloads(max_index, seed)):
        coupling = workload.coupling.scaled(epsilon)
        with SQLiteBackend() as backend:
            def linbp_from_scratch():
                backend.load_graph(workload.graph, coupling, workload.explicit)
                return backend.run_linbp(num_iterations=TIMING_ITERATIONS)

            _, linbp_seconds = timed(linbp_from_scratch)
        with sbp_from_scratch("relational", workload.graph, coupling,
                              workload.explicit) as (runner, sbp_seconds):
            _, delta_seconds = timed(lambda: runner.add_explicit_beliefs(
                workload.explicit_update))
        table.add_row(
            index=workload.index,
            nodes=workload.num_nodes,
            edges=workload.num_edges,
            linbp_sql_seconds=linbp_seconds,
            sbp_sql_seconds=sbp_seconds,
            delta_sbp_sql_seconds=delta_seconds,
            linbp_over_sbp=linbp_seconds / sbp_seconds if sbp_seconds else float("inf"),
            sbp_over_delta=sbp_seconds / delta_seconds if delta_seconds else float("inf"),
        )
    return table


def run_timing_table(max_index: int = 3, epsilon: float = DEFAULT_EPSILON,
                     include_bp: bool = True, seed: int = 0) -> ResultTable:
    """Fig. 7c: the combined timing table over the largest generated graphs."""
    workloads = _workloads(max_index, seed)
    memory = run_memory_scalability(max_index=max_index, epsilon=epsilon,
                                    include_bp=include_bp, seed=seed,
                                    workloads=workloads)
    relational = run_relational_scalability(max_index=max_index, epsilon=epsilon,
                                            seed=seed, workloads=workloads)
    table = ResultTable("Fig. 7c — combined timing table")
    for memory_row, relational_row in zip(memory, relational):
        row = {
            "index": memory_row["index"],
            "nodes": memory_row["nodes"],
            "edges": memory_row["edges"],
            "bp_seconds": memory_row.get("bp_seconds"),
            "linbp_seconds": memory_row["linbp_seconds"],
            "sbp_seconds": memory_row["sbp_seconds"],
            "delta_sbp_seconds": memory_row["delta_sbp_seconds"],
            "linbp_sql_seconds": relational_row["linbp_sql_seconds"],
            "sbp_sql_seconds": relational_row["sbp_sql_seconds"],
            "delta_sbp_sql_seconds": relational_row["delta_sbp_sql_seconds"],
            "bp_over_linbp": memory_row.get("bp_over_linbp"),
            "linbp_sql_over_sbp": relational_row["linbp_over_sbp"],
            "sbp_over_delta_sbp": relational_row["sbp_over_delta"],
        }
        table.add_row(**row)
    return table
