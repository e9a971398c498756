"""Single-Pass Belief Propagation (SBP) with incremental maintenance.

SBP (Section 6 of the paper) is the limit of LinBP as the coupling scale
``ε_H`` tends to zero: the standardized beliefs of a node depend only on its
*nearest* explicitly labeled neighbours.  Concretely (Definition 15), a node
``t`` with geodesic number ``g`` receives

.. math::

    \\hat b_t = \\hat H^{g} \\sum_{p \\in P^g_t} w_p\\, \\hat e_p

summing over all shortest paths ``p`` from labeled nodes to ``t`` (``w_p`` is
the product of edge weights along ``p``).  Equivalently (Lemma 17), SBP equals
LinBP run over the acyclic modified adjacency matrix ``A*`` in which only
edges from geodesic level ``g`` to level ``g+1`` survive — so the computation
needs a single sweep over the levels and touches every edge at most once.

The class :class:`SBP` performs the initial single-pass computation
(Algorithm 2) and supports the two incremental updates from the paper:

* :meth:`SBP.add_explicit_beliefs` — Algorithm 3, new/changed labeled nodes;
* :meth:`SBP.add_edges` — Algorithm 4 (appendix), new edges.

Both updates only touch the nodes whose geodesic number or belief actually
changes, which is what makes SBP attractive for dynamic graphs.

All the numerics route through :mod:`repro.engine.sbp_plan`: the initial
sweep runs on a cached :class:`~repro.engine.sbp_plan.SBPPlan` (vectorised
BFS, per-level CSR slices, ping-pong buffers), and the incremental updates
use its vectorised frontier repairs.  Many queries sharing a labeled set
can be propagated together with
:func:`repro.engine.sbp_plan.run_sbp_batch`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.beliefs.beliefs import checked_explicit, checked_update
from repro.coupling.matrices import CouplingMatrix
from repro.core.results import PropagationResult
from repro.engine import sbp_plan as engine_sbp
from repro.exceptions import ValidationError
from repro.graphs.graph import Edge, Graph, edge_columns

__all__ = ["SBP", "sbp"]


class SBP:
    """Single-pass BP runner with incremental update support.

    Parameters
    ----------
    graph:
        The undirected, possibly weighted network.
    coupling:
        The coupling matrix.  Because SBP's standardized output is invariant
        to the scale ``ε_H`` (Section 6.2), the default scale 1 is normally
        used; the raw belief magnitudes do scale with ``ε_H`` as
        ``ε_H^{g}`` which matters only for Fig. 4d-style plots.

    Notes
    -----
    After :meth:`run`, the instance keeps the computed geodesic numbers and
    beliefs as state so the incremental methods can update them in place.
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix):
        self.graph = graph
        self.coupling = coupling
        self._residual = coupling.residual
        self._geodesic: Optional[np.ndarray] = None
        self._beliefs: Optional[np.ndarray] = None
        self._explicit: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # initial single-pass computation (Algorithm 2)
    # ------------------------------------------------------------------ #
    def run(self, explicit_residuals: np.ndarray) -> PropagationResult:
        """Compute SBP beliefs for all nodes in a single sweep over levels.

        The sweep runs on the cached :class:`~repro.engine.sbp_plan.SBPPlan`
        for this graph and labeled set — repeated runs against the same
        labels reuse the geodesic structure and only redo the per-level
        products.  Nodes that cannot reach any labeled node keep all-zero
        beliefs and geodesic number :data:`repro.graphs.geodesic.UNREACHABLE`.
        """
        explicit = checked_explicit(explicit_residuals, self.graph.num_nodes,
                                    self.coupling.num_classes)
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        plan = engine_sbp.get_sbp_plan(self.graph, labeled)
        beliefs, edges_touched = plan.propagate(explicit, self._residual)
        self._geodesic = plan.geodesic_numbers.copy()
        self._beliefs = beliefs
        self._explicit = explicit.copy()
        return self._result(edges_touched=edges_touched)

    # ------------------------------------------------------------------ #
    # incremental update: new explicit beliefs (Algorithm 3)
    # ------------------------------------------------------------------ #
    def add_explicit_beliefs(self, new_residuals: Mapping[int, np.ndarray] | np.ndarray) -> PropagationResult:
        """Incorporate new (or changed) explicit beliefs without a full re-run.

        Parameters
        ----------
        new_residuals:
            Either a mapping ``node -> residual vector`` or a full ``n x k``
            matrix whose non-zero rows are the new explicit beliefs
            (:func:`repro.beliefs.checked_update`).  All nodes and vectors
            are validated *before* any state is touched, so a malformed
            update leaves the runner unchanged.

        Returns
        -------
        PropagationResult
            The updated full belief matrix.  ``extra['nodes_updated']``
            reports how many nodes had their geodesic number or belief
            recomputed — the quantity that makes ΔSBP cheaper than a full
            recomputation (Fig. 7e).
        """
        self._require_state()
        nodes, vectors = checked_update(new_residuals, self.graph.num_nodes,
                                        self.coupling.num_classes)
        if not nodes.size:
            return self._result(edges_touched=0, nodes_updated=0)
        stats = engine_sbp.repair_explicit_beliefs(
            self.graph.adjacency, self._geodesic, self._beliefs,
            self._explicit, self._residual, nodes, vectors)
        return self._result(edges_touched=stats.edges_touched,
                            nodes_updated=stats.nodes_updated)

    # ------------------------------------------------------------------ #
    # incremental update: new edges (Algorithm 4)
    # ------------------------------------------------------------------ #
    def add_edges(self, new_edges: Iterable[Tuple[int, int] | Tuple[int, int, float] | Edge],
                  updated_graph: Optional[Graph] = None) -> PropagationResult:
        """Incorporate new edges without a full re-run (Algorithm 4).

        The graph held by this instance is replaced by a new :class:`Graph`
        containing the added edges; geodesic numbers and beliefs are then
        repaired outwards from the "seed" endpoints whose geodesic number (or
        belief) the new edges change.

        ``updated_graph`` may supply the successor graph directly when the
        caller already built ``self.graph.with_edges_added(new_edges)`` —
        the propagation service does this so every maintained view and the
        service snapshot share *one* graph object (and therefore one set of
        cached engine plans) instead of each rebuilding an identical copy.
        It must equal exactly that successor; passing anything else breaks
        the repair's invariants.
        """
        self._require_state()
        edges = list(new_edges)
        if not edges:
            return self._result(edges_touched=0, nodes_updated=0)
        # Line 1: update the adjacency matrix (building it validates the
        # edges before any state is touched).
        graph = updated_graph if updated_graph is not None \
            else self.graph.with_edges_added(edges)
        sources, targets, _ = edge_columns(edges)
        self.graph = graph
        stats = engine_sbp.repair_added_edges(
            self.graph.adjacency, self._geodesic, self._beliefs,
            self._explicit, self._residual, sources, targets)
        return self._result(edges_touched=stats.edges_touched,
                            nodes_updated=stats.nodes_updated)

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def geodesic_numbers(self) -> np.ndarray:
        """Geodesic numbers after the last run/update (copy)."""
        self._require_state()
        return self._geodesic.copy()

    @property
    def beliefs(self) -> np.ndarray:
        """Residual final beliefs after the last run/update (copy)."""
        self._require_state()
        return self._beliefs.copy()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _result(self, edges_touched: int, nodes_updated: Optional[int] = None) -> PropagationResult:
        extra: Dict[str, object] = {
            "geodesic_numbers": self._geodesic.copy(),
            "edges_touched": edges_touched,
            "epsilon": self.coupling.epsilon,
        }
        if nodes_updated is not None:
            extra["nodes_updated"] = nodes_updated
        max_level = int(self._geodesic.max()) if self._geodesic.size else 0
        return PropagationResult(
            beliefs=self._beliefs.copy(),
            method="SBP",
            iterations=max(0, max_level),
            converged=True,
            residual_history=[],
            extra=extra,
        )

    def _require_state(self) -> None:
        if self._beliefs is None or self._geodesic is None or self._explicit is None:
            raise ValidationError("call run() before using incremental updates "
                                  "or accessing state")


def sbp(graph: Graph, coupling: CouplingMatrix,
        explicit_residuals: np.ndarray) -> PropagationResult:
    """Functional one-shot interface to :class:`SBP` (initial computation only)."""
    runner = SBP(graph, coupling)
    return runner.run(explicit_residuals)
