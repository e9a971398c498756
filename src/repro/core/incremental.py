"""Incremental maintenance for LinBP (the paper's Section 8 outlook).

The paper supports incremental updates only for SBP and notes that
"incrementally updating the result of LinBP is more challenging since it
involves general matrix computations ... left for future work" (Section 8).
This module provides the two practical mechanisms that the linear-system view
of LinBP makes available:

* **Label updates by superposition.**  The LinBP fixed point is linear in the
  explicit beliefs (Lemma 12 / Proposition 7):
  ``B̂(Ê + ΔÊ) = B̂(Ê) + B̂(ΔÊ)``.  When new labels arrive it therefore
  suffices to solve the system once for the *delta* right-hand side and add
  the correction — no recomputation over the old labels, and the correction
  iteration starts from zero with a right-hand side supported only on the
  changed nodes, so it converges in few sweeps when the update is local.
* **Edge updates by warm starting.**  Adding edges changes the system matrix,
  so superposition does not apply; instead the iteration is restarted from
  the previous fixed point.  Because the Jacobi iteration's error contracts
  geometrically at rate ``ρ(M)`` and the old solution is already close to the
  new one for small edge changes, the warm start needs far fewer iterations
  than a cold start (the tests assert this).

Both operations leave the maintained solution bit-for-bit consistent with a
full recomputation up to the solver tolerance.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.beliefs.beliefs import checked_explicit, checked_update
from repro.coupling.matrices import CouplingMatrix
from repro.core.linbp import LinBP
from repro.core.results import PropagationResult
from repro.exceptions import ValidationError
from repro.graphs.graph import Edge, Graph

__all__ = ["IncrementalLinBP"]


class IncrementalLinBP:
    """Maintain a LinBP solution under label and edge updates.

    Parameters
    ----------
    graph:
        The initial undirected, possibly weighted network.
    coupling:
        The scaled residual coupling matrix ``Ĥ``.
    echo_cancellation:
        True (default) maintains full LinBP, False the LinBP* variant.
    max_iterations, tolerance:
        Budget and stopping threshold used by every (re)solve.

    Notes
    -----
    The instance keeps the current explicit beliefs ``Ê`` and the current
    fixed point ``B̂``; :meth:`add_explicit_beliefs` and :meth:`add_edges`
    update both in place and return the usual
    :class:`~repro.core.results.PropagationResult`, whose
    ``extra['update_iterations']`` records how much work the update needed
    (and, for label updates, ``extra['nodes_updated']`` how many label
    rows changed).
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix,
                 echo_cancellation: bool = True, max_iterations: int = 200,
                 tolerance: float = 1e-10):
        self.coupling = coupling
        self.echo_cancellation = echo_cancellation
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self._solver = LinBP(graph, coupling, echo_cancellation=echo_cancellation,
                             max_iterations=max_iterations, tolerance=tolerance)
        self._explicit: Optional[np.ndarray] = None
        self._beliefs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The current graph (replaced by :meth:`add_edges`)."""
        return self._solver.graph

    @property
    def beliefs(self) -> np.ndarray:
        """The current fixed point ``B̂`` (copy)."""
        self._require_state()
        return self._beliefs.copy()

    @property
    def explicit_beliefs(self) -> np.ndarray:
        """The current explicit beliefs ``Ê`` (copy)."""
        self._require_state()
        return self._explicit.copy()

    # ------------------------------------------------------------------ #
    # initial solve
    # ------------------------------------------------------------------ #
    def run(self, explicit_residuals: np.ndarray) -> PropagationResult:
        """Solve the system from scratch and remember the solution."""
        explicit = checked_explicit(explicit_residuals, self.graph.num_nodes,
                                    self.coupling.num_classes)
        result = self._solver.run(explicit)
        self._explicit = explicit.copy()
        self._beliefs = result.beliefs.copy()
        return self._package(result, update_iterations=result.iterations)

    # ------------------------------------------------------------------ #
    # incremental label updates (superposition)
    # ------------------------------------------------------------------ #
    def add_explicit_beliefs(self, new_residuals: Mapping[int, np.ndarray] | np.ndarray) -> PropagationResult:
        """Add (or change) explicit beliefs without re-solving for old labels.

        ``new_residuals`` is either a mapping ``node -> new residual row`` or
        a full matrix whose non-zero rows are the new values
        (:func:`repro.beliefs.checked_update`).  Rows given here *replace*
        the node's previous explicit beliefs; the correction solved for is
        the difference, and ``extra['nodes_updated']`` counts the rows it
        changes.
        """
        self._require_state()
        nodes, rows = checked_update(new_residuals, self.graph.num_nodes,
                                     self.coupling.num_classes)
        delta = np.zeros_like(self._explicit)
        delta[nodes] = rows - self._explicit[nodes]
        changed = int(np.count_nonzero(np.any(delta != 0.0, axis=1)))
        if not changed:
            return self._package_current(update_iterations=0, nodes_updated=0)
        correction = self._solver.run(delta)
        self._explicit = self._explicit + delta
        self._beliefs = self._beliefs + correction.beliefs
        return self._package_current(update_iterations=correction.iterations,
                                     converged=correction.converged,
                                     nodes_updated=changed)

    # ------------------------------------------------------------------ #
    # incremental edge updates (warm start)
    # ------------------------------------------------------------------ #
    def add_edges(self, new_edges: Iterable[Tuple[int, int] | Tuple[int, int, float] | Edge],
                  updated_graph: Optional[Graph] = None) -> PropagationResult:
        """Add edges and repair the solution by warm-started iteration.

        ``updated_graph`` may supply the prebuilt successor graph (it must
        equal ``self.graph.with_edges_added(new_edges)``); the propagation
        service passes it so every maintained view shares one graph object
        — and therefore one cached engine plan — with the snapshot.
        """
        self._require_state()
        edges = list(new_edges)
        if not edges:
            return self._package_current(update_iterations=0)
        new_graph = updated_graph if updated_graph is not None \
            else self.graph.with_edges_added(edges)
        self._solver = LinBP(new_graph, self.coupling,
                             echo_cancellation=self.echo_cancellation,
                             max_iterations=self.max_iterations,
                             tolerance=self.tolerance)
        warm = self._solver.run(self._explicit, initial_beliefs=self._beliefs)
        self._beliefs = warm.beliefs.copy()
        return self._package_current(update_iterations=warm.iterations,
                                     converged=warm.converged)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _require_state(self) -> None:
        if self._beliefs is None or self._explicit is None:
            raise ValidationError("call run() before incremental updates")

    def _package(self, result: PropagationResult, update_iterations: int,
                 converged: Optional[bool] = None) -> PropagationResult:
        return PropagationResult(
            beliefs=self._beliefs.copy(),
            method="LinBP (incremental)" if self.echo_cancellation
            else "LinBP* (incremental)",
            iterations=result.iterations,
            converged=result.converged if converged is None else converged,
            residual_history=list(result.residual_history),
            extra={"update_iterations": update_iterations,
                   "echo_cancellation": self.echo_cancellation,
                   "epsilon": self.coupling.epsilon},
        )

    def _package_current(self, update_iterations: int,
                         converged: bool = True,
                         **extra: object) -> PropagationResult:
        return PropagationResult(
            beliefs=self._beliefs.copy(),
            method="LinBP (incremental)" if self.echo_cancellation
            else "LinBP* (incremental)",
            iterations=update_iterations,
            converged=converged,
            residual_history=[],
            extra={"update_iterations": update_iterations,
                   "echo_cancellation": self.echo_cancellation,
                   "epsilon": self.coupling.epsilon, **extra},
        )
