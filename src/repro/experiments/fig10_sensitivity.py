"""Experiments E9/E10 — Fig. 10: sensitivity to explicit-belief and edge updates.

* **Fig. 10a**: with the graph fixed, vary the fraction of explicitly labeled
  nodes.  LinBP gets slightly slower (more non-zero rows to propagate), SBP
  gets slightly faster (fewer levels to sweep) — both effects are minor.
* **Fig. 10b**: keep 10 % of the nodes labeled and vary the fraction of the
  final edges that arrive as an update.  Incremental ΔSBP (Algorithm 4) beats
  recomputation only for small fractions (~3 % in the paper) because edge
  insertions can force repeated repairs of the same nodes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.linbp import linbp
from repro.core.sbp import SBP
from repro.datasets.kronecker_suite import kronecker_suite
from repro.datasets.synthetic_labels import sample_explicit_beliefs, sample_explicit_nodes
from repro.experiments.runner import ResultTable, sbp_from_scratch, timed
from repro.graphs.graph import Edge, Graph

__all__ = ["run_explicit_fraction_sweep", "run_incremental_edges"]

DEFAULT_EXPLICIT_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)
DEFAULT_EDGE_FRACTIONS = (0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.10)


def run_explicit_fraction_sweep(graph_index: int = 3,
                                fractions: Sequence[float] = DEFAULT_EXPLICIT_FRACTIONS,
                                epsilon: float = 0.001, num_iterations: int = 5,
                                seed: int = 0) -> ResultTable:
    """Fig. 10a: runtime of LinBP and SBP as the labeled fraction grows."""
    workload = kronecker_suite(max_index=graph_index, seed=seed)[graph_index - 1]
    graph = workload.graph
    coupling = workload.coupling.scaled(epsilon)
    table = ResultTable("Fig. 10a — runtime vs fraction of explicit beliefs")
    for fraction in fractions:
        nodes = sample_explicit_nodes(graph.num_nodes, fraction, seed=seed + 31)
        explicit = sample_explicit_beliefs(graph.num_nodes, 3, nodes, seed=seed + 32)
        _, linbp_seconds = timed(lambda: linbp(graph, coupling, explicit,
                                               num_iterations=num_iterations))
        _, sbp_seconds = timed(lambda: SBP(graph, coupling).run(explicit))
        table.add_row(
            explicit_fraction=float(fraction),
            linbp_seconds=linbp_seconds,
            sbp_seconds=sbp_seconds,
        )
    return table


def _split_edges(graph: Graph, new_fraction: float,
                 seed: int) -> Tuple[Graph, List[Edge]]:
    """Remove a random fraction of edges; return (reduced graph, removed edges)."""
    edges = list(graph.edges())
    rng = np.random.default_rng(seed)
    count_new = int(round(new_fraction * len(edges)))
    if count_new == 0:
        return graph, []
    new_indices = set(rng.choice(len(edges), size=count_new, replace=False).tolist())
    kept = [edge for index, edge in enumerate(edges) if index not in new_indices]
    removed = [edges[index] for index in sorted(new_indices)]
    reduced = Graph.from_edges(kept, num_nodes=graph.num_nodes)
    return reduced, removed


def run_incremental_edges(graph_index: int = 3, explicit_fraction: float = 0.10,
                          fractions: Sequence[float] = DEFAULT_EDGE_FRACTIONS,
                          epsilon: float = 0.001, seed: int = 0,
                          engine: str = "memory") -> ResultTable:
    """Fig. 10b: ΔSBP edge updates vs recomputing SBP from scratch.

    With ``x`` % new edges, the initial SBP run sees the graph with those
    edges removed and Algorithm 4 then inserts them; the constant reference is
    a full SBP run on the complete graph.  ``engine`` is ``"memory"`` or
    ``"relational"`` (SQLite; a from-scratch run includes loading the
    relations).
    """
    workload = kronecker_suite(max_index=graph_index, seed=seed)[graph_index - 1]
    full_graph = workload.graph
    coupling = workload.coupling.scaled(epsilon)
    nodes = sample_explicit_nodes(full_graph.num_nodes, explicit_fraction,
                                  seed=seed + 41)
    explicit = sample_explicit_beliefs(full_graph.num_nodes, 3, nodes, seed=seed + 42)
    table = ResultTable("Fig. 10b — incremental edge insertion vs SBP from scratch")
    with sbp_from_scratch(engine, full_graph, coupling, explicit) \
            as (_, scratch_seconds):
        pass
    for fraction in fractions:
        reduced_graph, new_edges = _split_edges(full_graph, fraction, seed=seed + 43)
        with sbp_from_scratch(engine, reduced_graph, coupling, explicit) \
                as (runner, _):
            result, delta_seconds = timed(lambda: runner.add_edges(new_edges))
        table.add_row(
            new_edge_fraction=float(fraction),
            num_new_edges=len(new_edges),
            delta_sbp_seconds=delta_seconds,
            sbp_scratch_seconds=scratch_seconds,
            nodes_updated=result.extra.get("nodes_updated"),
            delta_faster=delta_seconds < scratch_seconds,
        )
    return table
