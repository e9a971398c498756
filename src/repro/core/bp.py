"""Standard multi-class loopy Belief Propagation (the paper's baseline).

This is the algorithm that LinBP linearizes: messages are exchanged along
every directed edge and beliefs are products of priors and incoming messages
(Equations 1–3 of the paper):

.. math::

    b_s(i) \\propto e_s(i) \\prod_{u \\in N(s)} m_{us}(i)

    m_{st}(i) \\propto \\sum_j H(j, i)\\, e_s(j) \\prod_{u \\in N(s)\\setminus t} m_{us}(j)

with messages normalised so their elements sum to ``k`` (Eq. 3) and beliefs
normalised to sum to 1.  On loopy graphs the iteration has no convergence
guarantee — which is precisely the problem the paper solves for LinBP — so the
implementation monitors the belief change per iteration and simply reports
whether the tolerance was reached.

The implementation is fully vectorised: messages live in a
``(num_directed_edges, k)`` array aligned with the CSR structure of the
adjacency matrix, and products of incoming messages are accumulated in
log-space for numerical robustness (messages are strictly positive).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.beliefs.beliefs import (
    center_probability_matrix,
    checked_explicit,
    uncenter_residual_matrix,
)
from repro.coupling.matrices import CouplingMatrix
from repro.core.results import PropagationResult
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph

__all__ = ["BeliefPropagation", "belief_propagation"]

_EPS = 1e-300  # floor used before taking logarithms


def _directed_edge_structure(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (source, target, reverse_index) arrays for all directed edges.

    Directed edges are enumerated in CSR order of the adjacency matrix.  The
    reverse index maps the edge ``s -> t`` to the edge ``t -> s``; it exists
    for every edge because the adjacency matrix is symmetric.
    """
    adjacency = graph.adjacency
    num_edges = adjacency.nnz
    targets = adjacency.indices.astype(np.int64)
    sources = np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                        np.diff(adjacency.indptr))
    # Position lookup: edge_id[(s, t)] -> index.  Build with a dictionary once;
    # the cost is linear in the number of edges and only paid at setup.
    position = {(int(s), int(t)): index
                for index, (s, t) in enumerate(zip(sources, targets))}
    reverse = np.empty(num_edges, dtype=np.int64)
    for index, (s, t) in enumerate(zip(sources, targets)):
        reverse[index] = position[(int(t), int(s))]
    return sources, targets, reverse


class BeliefPropagation:
    """Loopy BP runner bound to a graph and a coupling matrix.

    Parameters
    ----------
    graph:
        The undirected network.  Edge weights are ignored by the baseline
        (the paper's BP experiments use unweighted graphs); pass an
        unweighted graph to match the paper exactly.
    coupling:
        The coupling matrix; BP uses its stochastic form ``H = Ĥ + 1/k``.
        The scaled residual must keep ``H`` non-negative.
    max_iterations:
        Iteration budget (the paper times 5 iterations; quality runs use more).
    tolerance:
        Stop when the maximum absolute belief change drops below this value.
    damping:
        Optional message damping in ``[0, 1)``; 0 reproduces plain BP,
        larger values mix in the previous message to help convergence.
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix,
                 max_iterations: int = 100, tolerance: float = 1e-8,
                 damping: float = 0.0):
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if not 0.0 <= damping < 1.0:
            raise ValidationError("damping must lie in [0, 1)")
        stochastic = coupling.stochastic
        if np.any(stochastic < -1e-12):
            raise ValidationError(
                "the scaled coupling matrix has negative entries; standard BP "
                "requires a non-negative potential (reduce epsilon)")
        self.graph = graph
        self.coupling = coupling
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping
        self._H = np.clip(stochastic, 0.0, None)
        self._sources, self._targets, self._reverse = _directed_edge_structure(graph)

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def run(self, explicit_residuals: np.ndarray,
            return_messages: bool = False) -> PropagationResult:
        """Run loopy BP and return centered final beliefs.

        Parameters
        ----------
        explicit_residuals:
            ``n x k`` centered explicit beliefs ``Ê`` (zero rows for unlabeled
            nodes).  They are converted internally to the probability form
            ``E = Ê + 1/k`` that the BP update equations expect.
        return_messages:
            When true, the final messages are attached to the result under
            ``extra['messages']`` together with ``extra['message_sources']``
            and ``extra['message_targets']`` (directed-edge endpoints in the
            same order).  Messages are normalised to sum to ``k`` (Eq. 3), so
            their residuals around 1 are exactly the ``m̂`` of the derivation
            in Section 4 — used by the tests that validate Lemmas 5 and 6.
        """
        residuals = checked_explicit(explicit_residuals, self.graph.num_nodes,
                                     self.coupling.num_classes)
        priors = uncenter_residual_matrix(residuals)
        if np.any(priors < -1e-12):
            raise ValidationError(
                "explicit beliefs fall outside [0, 1]; scale the residuals down")
        priors = np.clip(priors, _EPS, None)
        n, k = priors.shape
        num_edges = self._sources.size
        messages = np.ones((num_edges, k))
        beliefs = priors / priors.sum(axis=1, keepdims=True)
        history = []
        converged = False
        iterations_done = 0
        for iteration in range(1, self.max_iterations + 1):
            iterations_done = iteration
            messages = self._update_messages(messages, priors)
            new_beliefs = self._compute_beliefs(messages, priors)
            change = float(np.max(np.abs(new_beliefs - beliefs))) if n else 0.0
            history.append(change)
            beliefs = new_beliefs
            if change < self.tolerance:
                converged = True
                break
        centered = center_probability_matrix(beliefs)
        extra = {"damping": self.damping}
        if return_messages:
            extra["messages"] = messages.copy()
            extra["message_sources"] = self._sources.copy()
            extra["message_targets"] = self._targets.copy()
        return PropagationResult(
            beliefs=centered,
            method="BP",
            iterations=iterations_done,
            converged=converged,
            residual_history=history,
            extra=extra,
        )

    # ------------------------------------------------------------------ #
    # update steps
    # ------------------------------------------------------------------ #
    def _update_messages(self, messages: np.ndarray, priors: np.ndarray) -> np.ndarray:
        """One synchronous message update (Eq. 3), vectorised over edges."""
        n, k = priors.shape
        log_messages = np.log(np.clip(messages, _EPS, None))
        # Product of incoming messages per node, in log space.
        log_products = np.zeros((n, k))
        np.add.at(log_products, self._targets, log_messages)
        # For the edge s -> t, exclude the reverse message t -> s.
        log_excluded = log_products[self._sources] - log_messages[self._reverse]
        prefactor = priors[self._sources] * np.exp(log_excluded)
        raw = prefactor @ self._H  # raw[e, i] = sum_j H(j, i) * prefactor[e, j]
        sums = raw.sum(axis=1, keepdims=True)
        sums = np.where(sums <= 0.0, 1.0, sums)
        normalized = raw * (k / sums)
        if self.damping > 0.0:
            normalized = (1.0 - self.damping) * normalized + self.damping * messages
        return normalized

    def _compute_beliefs(self, messages: np.ndarray, priors: np.ndarray) -> np.ndarray:
        """Belief read-out (Eq. 1): prior times product of incoming messages."""
        n, k = priors.shape
        log_messages = np.log(np.clip(messages, _EPS, None))
        log_products = np.zeros((n, k))
        np.add.at(log_products, self._targets, log_messages)
        unnormalized = priors * np.exp(log_products)
        sums = unnormalized.sum(axis=1, keepdims=True)
        sums = np.where(sums <= 0.0, 1.0, sums)
        return unnormalized / sums


def belief_propagation(graph: Graph, coupling: CouplingMatrix,
                       explicit_residuals: np.ndarray,
                       max_iterations: int = 100, tolerance: float = 1e-8,
                       damping: float = 0.0,
                       return_messages: bool = False) -> PropagationResult:
    """Functional one-shot interface to :class:`BeliefPropagation`."""
    runner = BeliefPropagation(graph, coupling, max_iterations=max_iterations,
                               tolerance=tolerance, damping=damping)
    return runner.run(explicit_residuals, return_messages=return_messages)
