"""Experiment E6 — Fig. 7e: incremental ΔSBP vs recomputation from scratch.

The paper fixes 10 % of the nodes as explicitly labeled *after* the update and
varies which fraction of those labels is new: with ``x`` % new labels, the
initial SBP run sees ``(100 − x)`` % of the labels and the incremental
Algorithm 3 then adds the remaining ``x`` %.  Recomputing from scratch always
costs the same, so the two curves cross; the paper observes the crossover
around 50 % new labels.

Both the relational implementation (the paper's SQL experiment, on the
stdlib SQLite backend) and the in-memory implementation are measured, so
the crossover can be checked independently of the engine.  Both ΔSBP
variants repair through the frontier repairs of
:mod:`repro.engine.sbp_plan`; a relational from-scratch run includes
loading the relations, a relational ΔSBP run does not.
"""

from __future__ import annotations

from typing import Sequence

from repro.datasets.kronecker_suite import kronecker_suite
from repro.datasets.synthetic_labels import (
    sample_explicit_beliefs,
    sample_explicit_nodes,
    split_for_incremental_update,
)
from repro.experiments.runner import ResultTable, sbp_from_scratch, timed

__all__ = ["run_incremental_beliefs"]

DEFAULT_FRACTIONS = (0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def run_incremental_beliefs(graph_index: int = 3, explicit_fraction: float = 0.10,
                            new_fractions: Sequence[float] = DEFAULT_FRACTIONS,
                            epsilon: float = 0.001, seed: int = 0,
                            engine: str = "relational") -> ResultTable:
    """Fig. 7e: ΔSBP update time vs full SBP recomputation.

    Parameters
    ----------
    graph_index:
        Which Kronecker workload to use (paper: graph #5).
    explicit_fraction:
        Fraction of nodes labeled after the update (paper: 10 %).
    new_fractions:
        Fractions of those labels that arrive through the update.
    engine:
        ``"relational"`` (paper's SQL setting, on SQLite) or ``"memory"``
        for the NumPy implementation.
    """
    workload = kronecker_suite(max_index=graph_index, seed=seed)[graph_index - 1]
    graph = workload.graph
    coupling = workload.coupling.scaled(epsilon)
    nodes = sample_explicit_nodes(graph.num_nodes, explicit_fraction, seed=seed + 7)
    full_explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes, seed=seed + 8)
    table = ResultTable("Fig. 7e — incremental DSBP vs SBP from scratch")
    # Cost of recomputing from scratch with all labels present (constant line).
    with sbp_from_scratch(engine, graph, coupling, full_explicit) \
            as (_, scratch_seconds):
        pass
    for fraction in new_fractions:
        initial, update = split_for_incremental_update(full_explicit, fraction,
                                                       seed=seed + 11)
        with sbp_from_scratch(engine, graph, coupling, initial) as (runner, _):
            result, delta_seconds = timed(
                lambda: runner.add_explicit_beliefs(update))
        table.add_row(
            new_fraction=float(fraction),
            delta_sbp_seconds=delta_seconds,
            sbp_scratch_seconds=scratch_seconds,
            nodes_updated=result.extra.get("nodes_updated"),
            delta_faster=delta_seconds < scratch_seconds,
        )
    return table
