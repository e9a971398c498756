"""Linearized Belief Propagation (LinBP and LinBP*).

The paper's central result (Theorem 4) is that the final beliefs of
multi-class BP are approximated by the linear equation system

.. math::

    \\hat B = \\hat E + A \\hat B \\hat H - D \\hat B \\hat H^2  \\qquad \\text{(LinBP)}

where ``Ê``/``B̂`` are the residual explicit/final beliefs, ``Ĥ`` the residual
coupling matrix, ``A`` the (weighted) adjacency matrix and ``D`` the diagonal
matrix of squared-weight degrees.  Dropping the echo-cancellation term
``D B̂ Ĥ²`` gives the simpler LinBP* (Eq. 5).

Both systems can be solved

* **iteratively** (Eq. 6/7): repeated sparse-matrix–dense-matrix products,
  which is how the paper's experiments run LinBP, or
* **in closed form** (Proposition 7): ``vec(B̂) = (I − Ĥ⊗A + Ĥ²⊗D)^{-1} vec(Ê)``
  via a sparse linear solve over the ``nk``-dimensional vectorised system.

This module implements both, plus the convergence bookkeeping of Section 5.1.
Since the engine refactor, the iterative path is a thin single-query wrapper
over the shared batched engine (:mod:`repro.engine`): a cached
:class:`~repro.engine.plan.PropagationPlan` holds the per-graph artifacts and
:func:`repro.engine.batch.run_batch` performs the buffer-reuse iteration, so
repeated queries against the same graph pay the setup cost once and many
concurrent queries can be propagated in one batch.  Near the Lemma 8
limit, where Eq. 6 needs hundreds of sweeps, ``run_batch`` solves
Proposition 7's system by conjugate gradients instead (see
:mod:`repro.engine.batch`); ``result.extra["solver"]`` says which ran.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.beliefs.beliefs import checked_explicit
from repro.coupling.matrices import CouplingMatrix
from repro.core.results import PropagationResult
from repro.engine import batch as engine_batch
from repro.engine import plan as engine_plan
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph

__all__ = ["LinBP", "linbp", "linbp_star", "linbp_closed_form"]


class LinBP:
    """LinBP / LinBP* runner bound to a graph and a coupling matrix.

    The constructor obtains the cached :class:`~repro.engine.plan
    .PropagationPlan` for ``(graph, coupling, echo_cancellation)``, so
    building many runners against the same configuration reuses one set of
    precomputed artifacts (CSR adjacency, squared degrees, residual
    coupling, Lemma 8 radius).

    Parameters
    ----------
    graph:
        The undirected, possibly weighted network.
    coupling:
        The (scaled) residual coupling matrix ``Ĥ``.
    echo_cancellation:
        True (default) runs full LinBP (Eq. 4); False runs LinBP* (Eq. 5).
    max_iterations:
        Iteration budget for the iterative solver.
    tolerance:
        The accuracy to stop at.  Jacobi sweeps stop when the maximum
        absolute belief change per iteration drops below it; the
        conjugate-gradient solve that :func:`repro.engine.batch.run_batch`
        picks near the Lemma 8 limit stops when its certified bound on
        the largest belief error, ``‖Ê − L(B̂)‖_F / (1 − ρ̄)``, does.
    require_convergence:
        When true, raise :class:`NotConvergentParametersError` if the exact
        spectral criterion of Lemma 8 says the iteration would diverge.
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix,
                 echo_cancellation: bool = True, max_iterations: int = 100,
                 tolerance: float = 1e-10, require_convergence: bool = False):
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        self.graph = graph
        self.coupling = coupling
        self.echo_cancellation = echo_cancellation
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.require_convergence = require_convergence
        self.plan = engine_plan.get_plan(graph, coupling,
                                         echo_cancellation=echo_cancellation)
        self._adjacency = self.plan.adjacency
        self._degrees = self.plan.degrees
        self._residual = self.plan.residual
        self._residual_squared = self.plan.residual_squared

    @property
    def method_name(self) -> str:
        """``"LinBP"`` or ``"LinBP*"`` depending on echo cancellation."""
        return self.plan.method_name

    # ------------------------------------------------------------------ #
    # iterative solution (Eq. 6 / Eq. 7) — delegated to the engine
    # ------------------------------------------------------------------ #
    def run(self, explicit_residuals: np.ndarray,
            initial_beliefs: Optional[np.ndarray] = None,
            num_iterations: Optional[int] = None) -> PropagationResult:
        """Iteratively solve the LinBP update equations.

        This is the single-query form of :func:`repro.engine.batch
        .run_batch`; use the engine directly to propagate many explicit
        matrices over the same graph at once.

        Parameters
        ----------
        explicit_residuals:
            ``n x k`` centered explicit beliefs ``Ê``.
        initial_beliefs:
            Optional starting point ``B̂^(0)``; defaults to all zeros (the
            paper notes the fixed point is independent of the start whenever
            the iteration converges).
        num_iterations:
            When given, run exactly this many Jacobi sweeps without early
            stopping — used by the timing experiments that fix 5 iterations.
        """
        results = engine_batch.run_batch(
            self.plan, [explicit_residuals],
            initial_beliefs=[initial_beliefs],
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            num_iterations=num_iterations,
            require_convergence=self.require_convergence,
        )
        result = results[0]
        # Single-query runs drop the batch bookkeeping but keep the
        # solver's provenance (solver, and for CG its error bound and ρ̄).
        for key in ("engine", "batch_size"):
            del result.extra[key]
        return result

    # ------------------------------------------------------------------ #
    # closed-form solution (Proposition 7)
    # ------------------------------------------------------------------ #
    def solve_closed_form(self, explicit_residuals: np.ndarray) -> PropagationResult:
        """Solve the vectorised linear system of Proposition 7 directly.

        The system matrix ``I_nk − Ĥ⊗A + Ĥ²⊗D`` is assembled sparsely
        (``Ĥ`` is only k x k) and handed to SuperLU via ``scipy.sparse.linalg
        .spsolve``.  Because ``vec`` stacks *columns*, the vectorised unknown
        is ``B̂`` flattened in Fortran (column-major) order.
        """
        explicit = checked_explicit(explicit_residuals, self.plan.num_nodes,
                                    self.plan.num_classes)
        n, k = explicit.shape
        identity = sp.identity(n * k, format="csr")
        system = identity - sp.kron(sp.csr_matrix(self._residual),
                                    self._adjacency, format="csr")
        if self.echo_cancellation:
            degree = sp.diags(self._degrees, format="csr")
            system = system + sp.kron(sp.csr_matrix(self._residual_squared),
                                      degree, format="csr")
        right_hand_side = explicit.flatten(order="F")
        solution = spla.spsolve(system.tocsc(), right_hand_side)
        beliefs = np.asarray(solution).reshape((n, k), order="F")
        return PropagationResult(
            beliefs=beliefs,
            method=f"{self.method_name} (closed form)",
            iterations=0,
            converged=True,
            residual_history=[],
            extra={"echo_cancellation": self.echo_cancellation,
                   "epsilon": self.coupling.epsilon,
                   "solver": "spsolve"},
        )

    # ------------------------------------------------------------------ #
    # convergence helpers
    # ------------------------------------------------------------------ #
    def _exactly_convergent(self) -> bool:
        return self.plan.is_exactly_convergent()

    def spectral_radius(self) -> float:
        """Spectral radius of the update matrix (the Lemma 8 quantity).

        Cached on the underlying plan, so repeated checks are free.
        """
        return self.plan.update_spectral_radius()


# ---------------------------------------------------------------------- #
# functional wrappers
# ---------------------------------------------------------------------- #
def linbp(graph: Graph, coupling: CouplingMatrix, explicit_residuals: np.ndarray,
          max_iterations: int = 100, tolerance: float = 1e-10,
          num_iterations: Optional[int] = None,
          require_convergence: bool = False) -> PropagationResult:
    """Run full LinBP (with echo cancellation) iteratively."""
    runner = LinBP(graph, coupling, echo_cancellation=True,
                   max_iterations=max_iterations, tolerance=tolerance,
                   require_convergence=require_convergence)
    return runner.run(explicit_residuals, num_iterations=num_iterations)


def linbp_star(graph: Graph, coupling: CouplingMatrix,
               explicit_residuals: np.ndarray, max_iterations: int = 100,
               tolerance: float = 1e-10, num_iterations: Optional[int] = None,
               require_convergence: bool = False) -> PropagationResult:
    """Run LinBP* (without echo cancellation) iteratively."""
    runner = LinBP(graph, coupling, echo_cancellation=False,
                   max_iterations=max_iterations, tolerance=tolerance,
                   require_convergence=require_convergence)
    return runner.run(explicit_residuals, num_iterations=num_iterations)


def linbp_closed_form(graph: Graph, coupling: CouplingMatrix,
                      explicit_residuals: np.ndarray,
                      echo_cancellation: bool = True) -> PropagationResult:
    """Solve LinBP (or LinBP*) in closed form via the Kronecker system.

    ``echo_cancellation`` defaults to True, i.e. the full LinBP system
    ``(I − Ĥ⊗A + Ĥ²⊗D)`` of Proposition 7 is solved; pass False to drop the
    ``Ĥ²⊗D`` echo term and obtain the closed form of LinBP* instead.
    """
    runner = LinBP(graph, coupling, echo_cancellation=echo_cancellation)
    return runner.solve_closed_form(explicit_residuals)
