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

from typing import Callable, Sequence, Tuple

from repro.datasets.kronecker_suite import kronecker_suite
from repro.datasets.synthetic_labels import (
    sample_explicit_beliefs,
    sample_explicit_nodes,
    split_for_incremental_update,
)
from repro.engine import clear_plan_cache
from repro.experiments.runner import ResultTable, sbp_from_scratch, timed

__all__ = ["incremental_arms", "run_incremental_beliefs"]

DEFAULT_FRACTIONS = (0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Fraction of the nodes labeled after the update (the paper's 10 %).
EXPLICIT_FRACTION = 0.10

#: Coupling scale of every run, well inside convergence on every graph.
EPSILON = 0.001

#: Seed of the workload and of the label sample.
SEED = 0


def _problem(graph_index: int, explicit_fraction: float, epsilon: float,
             seed: int):
    """The graph, the scaled coupling and all labels after the update."""
    workload = kronecker_suite(max_index=graph_index, seed=seed)[graph_index - 1]
    graph = workload.graph
    coupling = workload.coupling.scaled(epsilon)
    nodes = sample_explicit_nodes(graph.num_nodes, explicit_fraction, seed=seed + 7)
    full_explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes, seed=seed + 8)
    return graph, coupling, full_explicit


def _scratch_seconds(engine: str, graph, coupling, explicit) -> float:
    clear_plan_cache()
    with sbp_from_scratch(engine, graph, coupling, explicit) as (_, seconds):
        return seconds


def _delta_sbp(engine: str, graph, coupling, full_explicit, fraction: float,
               seed: int):
    """``(result, seconds)`` of Algorithm 3 adding ``fraction`` of the
    labels onto an SBP run over the rest (the run is not timed)."""
    initial, update = split_for_incremental_update(full_explicit, fraction,
                                                   seed=seed + 11)
    with sbp_from_scratch(engine, graph, coupling, initial) as (runner, _):
        return timed(lambda: runner.add_explicit_beliefs(update))


def incremental_arms(graph_index: int, new_fraction: float, engine: str
                     ) -> Tuple[Callable[[], float], Callable[[], float]]:
    """Fig. 7e's two timed runs at one fraction of new labels.

    Returns ``(sbp_scratch, delta_sbp)``: callables that run SBP from
    scratch with every label, and ΔSBP adding ``new_fraction`` of them
    onto a fresh SBP run over the rest, each returning its seconds — the
    two points :func:`run_incremental_beliefs` compares at its default
    labels, scale and seed, for timing them more than once.  SBP from
    scratch first empties the engine's plan cache, so that a repeated
    call builds the SBP plan again, as the table's run does.
    """
    graph, coupling, full_explicit = _problem(graph_index, EXPLICIT_FRACTION,
                                              EPSILON, SEED)
    return (lambda: _scratch_seconds(engine, graph, coupling, full_explicit),
            lambda: _delta_sbp(engine, graph, coupling, full_explicit,
                               new_fraction, SEED)[1])


def run_incremental_beliefs(graph_index: int = 3,
                            explicit_fraction: float = EXPLICIT_FRACTION,
                            new_fractions: Sequence[float] = DEFAULT_FRACTIONS,
                            epsilon: float = EPSILON, seed: int = SEED,
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
    graph, coupling, full_explicit = _problem(graph_index, explicit_fraction,
                                              epsilon, seed)
    table = ResultTable("Fig. 7e — incremental DSBP vs SBP from scratch")
    # Cost of recomputing from scratch with all labels present (constant line).
    scratch_seconds = _scratch_seconds(engine, graph, coupling, full_explicit)
    for fraction in new_fractions:
        result, delta_seconds = _delta_sbp(engine, graph, coupling,
                                           full_explicit, fraction, seed)
        table.add_row(
            new_fraction=float(fraction),
            delta_sbp_seconds=delta_seconds,
            sbp_scratch_seconds=scratch_seconds,
            nodes_updated=result.extra.get("nodes_updated"),
            delta_faster=delta_seconds < scratch_seconds,
        )
    return table
