"""Batched LinBP propagation over preallocated buffers.

Many concurrent queries against the same graph share the adjacency
structure; only their explicit beliefs differ.  Stacking ``q`` explicit
``n x k`` matrices side by side into one ``n x (q·k)`` block turns the
``q`` sparse products of a sequential sweep into a *single* SpMM whose
traversal of the adjacency matrix is amortised across all queries — the
sparse product is memory-bound on ``A``, so this is where the batched
speedup comes from.  The two dense coupling products collapse likewise
into single GEMMs on an ``(n·q) x k`` view.

Crucially, the LinBP update touches each query's ``k`` columns
independently (``A`` acts on rows, ``Ĥ`` within a block), so every query
in the batch evolves exactly as it would alone: batched and sequential
runs agree to floating-point noise, and each query keeps its *own*
convergence test and iteration count.  A converged query's beliefs are
frozen (snapshotted) while the rest of the batch keeps iterating.

Two solvers reach the same fixed point ``B̂ = Ê + A·B̂·Ĥ − D·B̂·Ĥ²``:

* **Eq. 6 Jacobi sweeps** (:meth:`BatchWorkspace.step`), stopping when
  a query's largest belief change falls below ``tolerance``.  They need
  about ``ln(tol)/ln ρ`` sweeps, where ``ρ`` is the Lemma 8 radius.
* **Conjugate gradients on Proposition 7's system** ``L(B) = B − A·B·Ĥ
  + D·B·Ĥ² = Ê``.  ``L`` is symmetric (``A``, ``D`` and ``Ĥ`` are), and
  positive definite when ``ρ < 1``, so CG applies and needs about
  ``√κ`` steps, ``κ = (1+ρ)/(1−ρ)``.  Each query stops on a certified
  bound: its true residual ``‖Ê − L(B)‖_F``, recomputed from the
  iterate, over ``1 − ρ̄`` (``ρ̄ ≥ ρ``, so ``‖L⁻¹‖₂ ≤ 1/(1 − ρ̄)``)
  bounds its largest belief error, and must fall below ``tolerance``.

:func:`run_batch` picks one solver per batch from the plan
(:func:`solver_radius`): CG only where a certified ``ρ̄`` is at least
:data:`CG_MIN_RADIUS` and below one, and only for an exactly symmetric
``Ĥ`` and no pinned ``num_iterations``.

:class:`BatchWorkspace` owns the preallocated buffers and performs one
Jacobi step, or one application of ``L``, with zero per-iteration
allocation of ``n x (q·k)`` blocks; :func:`run_batch` drives it to
convergence and unpacks one :class:`~repro.core.results.PropagationResult`
per query.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.results import PropagationResult
from repro.engine import kernels
from repro.engine.plan import PropagationPlan
from repro.exceptions import NotConvergentParametersError, ValidationError
from repro.obs import counter, profile_batch_query, span

__all__ = ["BatchWorkspace", "CG_MIN_RADIUS", "run_batch", "solver_radius"]

#: One increment per batched iteration (all queries advance together): a
#: Jacobi sweep or a CG step.  The residual recomputations that certify
#: a CG stop are timed as ``engine.certify`` spans and not counted here.
SWEEPS = counter("repro_engine_sweeps_total",
                 "Propagation sweeps executed, by engine.")

#: Certified Lemma 8 radius ``ρ̄`` from which CG answers instead of Jacobi
#: sweeps.  Jacobi needs about ``ln(tol)/ln ρ`` sweeps; CG needs fewer
#: steps, but each costs more (three more block updates and two per-query
#: dot products around the same operator) and its stop costs one more
#: application.  Measured in-process on one query on a 2-CPU host, a
#: Jacobi sweep of ``run_batch`` cost 111 µs and a CG step 181 µs on
#: Kronecker #3 (n = 2,187).  At ``ρ = 0.435`` Jacobi took 20 sweeps
#: (3.77 ms) and CG 14 steps (3.83 ms); at ``ρ = 0.537``, 27 sweeps
#: (4.89 ms) against 16 steps (4.39 ms).  On #4 (n = 6,561) the two met
#: near ``ρ = 0.35``.  Below this radius Jacobi is as cheap or cheaper,
#: and the plan's ∞-norm bound (one pass over ``A``) usually decides that
#: without an eigensolve.
CG_MIN_RADIUS = 0.4


def solver_radius(plan: PropagationPlan) -> Optional[float]:
    """The certified ``ρ̄`` a CG solve on ``plan`` stops with, or None.

    None means Eq. 6 Jacobi sweeps answer: an ``Ĥ`` that is not exactly
    symmetric, a radius below :data:`CG_MIN_RADIUS` (Jacobi is cheaper)
    or at least one (``L`` is not positive definite).  The cheap bound
    goes first: ``plan.operator_infinity_norm()`` bounds ``ρ`` from
    above, so when it is below the crossover the plan never pays the
    eigensolve; only when it cannot decide does the plan's cached
    Lemma 8 radius.
    """
    if not plan.is_symmetric:
        return None
    if plan.operator_infinity_norm() < CG_MIN_RADIUS:
        return None
    radius = plan.update_spectral_radius()
    if CG_MIN_RADIUS <= radius < 1.0:
        return radius
    return None


class BatchWorkspace:
    """Preallocated buffers for propagating a ``q``-query batch on one plan.

    All working memory — the stacked explicit block, the ping-pong belief
    buffers and one scratch block — is allocated once in the constructor;
    :meth:`step` then performs one full LinBP update of every query with
    in-place kernel writes only.  The two further blocks a CG solve needs
    (search directions and their images under ``L``) are allocated on the
    first CG solve and kept.  Workspaces are reusable: call :meth:`load`
    again to start a new batch of the same width.
    """

    def __init__(self, plan: PropagationPlan, num_queries: int):
        if num_queries < 1:
            raise ValidationError("num_queries must be >= 1")
        self.plan = plan
        self.num_queries = int(num_queries)
        n, k = plan.num_nodes, plan.num_classes
        shape = (n, self.num_queries * k)
        # ``front`` must start zeroed (the default B̂⁰); the other buffers
        # are fully overwritten before their first read, so plain ``empty``
        # keeps workspace construction cheap.
        self._explicit = np.empty(shape)
        self._front = np.zeros(shape)
        self._back = np.empty(shape)
        self._scratch = np.empty(shape)
        self._direction: Optional[np.ndarray] = None
        self._image: Optional[np.ndarray] = None
        self._negated_residual = -plan.residual

    # ------------------------------------------------------------------ #
    # loading and reading query blocks
    # ------------------------------------------------------------------ #
    def load(self, explicit_list: Sequence[np.ndarray],
             initial_beliefs: Optional[Sequence[Optional[np.ndarray]]] = None
             ) -> None:
        """Stack the per-query explicit beliefs (and optional starts)."""
        if len(explicit_list) != self.num_queries:
            raise ValidationError(
                f"expected {self.num_queries} explicit matrices, "
                f"got {len(explicit_list)}")
        k = self.plan.num_classes
        self._front[...] = 0.0
        checked = [self.plan.check_explicit(explicit)
                   for explicit in explicit_list]
        if self.plan.num_nodes:
            np.concatenate(checked, axis=1, out=self._explicit)
        if initial_beliefs is not None:
            for query, start in enumerate(initial_beliefs):
                if start is None:
                    continue
                start = np.asarray(start, dtype=np.float64)
                if start.shape != checked[query].shape:
                    raise ValidationError(
                        "initial beliefs must have the same shape as Ê")
                self._front[:, query * k:(query + 1) * k] = start

    def beliefs(self, query: int) -> np.ndarray:
        """Copy of the current ``n x k`` belief block of one query."""
        k = self.plan.num_classes
        return np.array(self._front[:, query * k:(query + 1) * k])

    # ------------------------------------------------------------------ #
    # one batched update step
    # ------------------------------------------------------------------ #
    def step(self, compute_changes: bool = True) -> Optional[np.ndarray]:
        """Apply Eq. 6 (or Eq. 7) to every query at once, in place.

        Returns the per-query maximum absolute belief change (length
        ``q``), the quantity the sequential solver uses for its stopping
        test.  The new beliefs become the front buffer.  Pass
        ``compute_changes=False`` to skip the stopping-test reduction and
        return ``None`` — used by timing experiments that measure the pure
        update cost (the reduction is three extra element-wise passes).
        """
        plan, k = self.plan, self.plan.num_classes
        # back <- Ê + A @ (front @ Ĥ) − (diag(d) @ front) @ Ĥ², through
        # preallocated buffers and in-place writes only.  Applying Ĥ
        # *before* the sparse product (associativity) lets the SpMM
        # accumulate straight onto Ê — one GEMM, one copy and one fused
        # sparse product instead of separate propagate/apply/add passes.
        kernels.block_matmul(self._front, plan.residual, out=self._scratch,
                             num_classes=k)
        np.copyto(self._back, self._explicit)
        kernels.spmm(plan.adjacency, self._scratch, out=self._back,
                     accumulate=True)
        if plan.echo_cancellation:
            kernels.block_matmul(self._front, plan.residual_squared,
                                 out=self._scratch, num_classes=k)
            kernels.scale_rows(plan.degrees, self._scratch, out=self._scratch)
            np.subtract(self._back, self._scratch, out=self._back)
        changes = kernels.max_abs_change_per_query(
            self._back, self._front, self._scratch, num_classes=k) \
            if compute_changes else None
        self._front, self._back = self._back, self._front
        return changes

    # ------------------------------------------------------------------ #
    # conjugate gradients on Proposition 7's system
    # ------------------------------------------------------------------ #
    def apply_system(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out <- L(block) = block − A·block·Ĥ + D·block·Ĥ²``, in place.

        The Proposition 7 system operator applied to every query at once,
        on the same kernels as :meth:`step`: the echo term is formed in
        ``out`` and the identity added onto it, then the SpMM accumulates
        ``A·(block·(−Ĥ))`` straight onto that (negating ``Ĥ`` is exact).
        """
        plan, k = self.plan, self.plan.num_classes
        if plan.echo_cancellation:
            kernels.block_matmul(block, plan.residual_squared, out=out,
                                 num_classes=k)
            kernels.scale_rows(plan.degrees, out, out=out)
            np.add(out, block, out=out)
        else:
            np.copyto(out, block)
        kernels.block_matmul(block, self._negated_residual,
                             out=self._scratch, num_classes=k)
        kernels.spmm(plan.adjacency, self._scratch, out=out, accumulate=True)
        return out

    def _cg_buffers(self):
        if self._direction is None:
            self._direction = np.empty_like(self._front)
            self._image = np.empty_like(self._front)
        return self._direction, self._image

    def _per_query(self, values: np.ndarray):
        """Per-query scalars as a multiplier of an ``n x (q·k)`` block.

        One query gets a plain scalar; a batch gets each value repeated
        over its query's ``k`` columns.  Either way every element is one
        correctly rounded product, so the choice does not change a bit.
        """
        if self.num_queries == 1:
            return float(values[0])
        return np.repeat(values, self.plan.num_classes)

    def _scaled_update(self, factors, block: np.ndarray, target: np.ndarray,
                       subtract: bool = False) -> None:
        """``target_j ±= factors_j · block_j`` for every query ``j``."""
        np.multiply(block, factors, out=self._scratch)
        if subtract:
            np.subtract(target, self._scratch, out=target)
        else:
            np.add(target, self._scratch, out=target)

    def _true_residual(self, out: np.ndarray) -> np.ndarray:
        """``out <- Ê − L(B)`` for every query; returns ``‖·‖_F²`` per query."""
        self.apply_system(self._front, out=out)
        np.subtract(self._explicit, out, out=out)
        return kernels.dot_per_query(out, out, self.plan.num_classes)


class _Trace:
    """Per-query bookkeeping of one :func:`run_batch` call."""

    def __init__(self, num_queries: int):
        self.histories: List[List[float]] = [[] for _ in range(num_queries)]
        self.iterations = np.zeros(num_queries, dtype=int)
        self.converged = np.zeros(num_queries, dtype=bool)
        self.frozen: List[Optional[np.ndarray]] = [None] * num_queries
        #: CG only: each query's certified bound on its largest error.
        self.error_bounds: Optional[np.ndarray] = None
        # Queries that converged on the previous iteration; their blocks
        # are snapshotted lazily, only when a further step is about to
        # overwrite them (when all converge together nothing is copied).
        self.pending_freeze: List[int] = []
        self.sweeps = 0

    def freeze_pending(self, workspace: BatchWorkspace) -> None:
        for query in self.pending_freeze:
            self.frozen[query] = workspace.beliefs(query)
        self.pending_freeze = []


def _run_jacobi(workspace: BatchWorkspace, trace: _Trace, budget: int,
                tolerance: float, fixed_iterations: bool) -> None:
    """Eq. 6 sweeps; each query stops on its own max-change test."""
    q = workspace.num_queries
    for _ in range(budget):
        if not fixed_iterations and trace.converged.all():
            break
        trace.freeze_pending(workspace)
        with span("engine.sweep", engine="batch", queries=q,
                  solver="jacobi") as sweep:
            changes = workspace.step()
            sweep.set_tag("residual", float(changes.max()))
        trace.sweeps += 1
        for query in np.nonzero(~trace.converged)[0]:
            trace.iterations[query] += 1
            trace.histories[query].append(float(changes[query]))
            if not fixed_iterations and changes[query] < tolerance:
                trace.converged[query] = True
                trace.pending_freeze.append(query)


def _run_cg(workspace: BatchWorkspace, trace: _Trace, budget: int,
            tolerance: float, radius: float, warm: bool) -> None:
    """Conjugate gradients on ``L(B) = Ê`` with a certified stop per query.

    The recurrence residual ``r`` only nominates a query: when
    ``‖r‖_F/(1 − ρ̄)`` falls below ``tolerance``, the true residual is
    recomputed from the iterate (one batched application of ``L``), and
    the query converges only if *that* bound holds.  Otherwise its
    residual is replaced by the true one and its search direction
    restarted.  Every per-query scalar comes from
    :func:`kernels.dot_per_query`, so a query's trajectory does not
    depend on the batch around it.
    """
    q, k = workspace.num_queries, workspace.plan.num_classes
    inverse_gap = 1.0 / (1.0 - radius)
    solution, residual = workspace._front, workspace._back
    direction, image = workspace._cg_buffers()

    def certify(candidates: np.ndarray) -> np.ndarray:
        """True-residual bounds; converge the candidates that hold."""
        with span("engine.certify", engine="batch", queries=q):
            squares = workspace._true_residual(image)
        bounds = np.sqrt(squares) * inverse_gap
        for query in np.nonzero(candidates)[0]:
            trace.error_bounds[query] = bounds[query]
            if trace.histories[query]:
                trace.histories[query][-1] = float(bounds[query])
            if bounds[query] < tolerance:
                trace.converged[query] = True
                trace.pending_freeze.append(query)
        return squares

    if warm:
        with span("engine.certify", engine="batch", queries=q):
            squares = workspace._true_residual(residual)
    else:
        np.copyto(residual, workspace._explicit)
        squares = kernels.dot_per_query(residual, residual, k)
    # r⁰ is a true residual: a query already within tolerance needs no step.
    bounds = np.sqrt(squares) * inverse_gap
    trace.error_bounds = bounds
    trace.converged[:] = bounds < tolerance
    trace.pending_freeze.extend(np.nonzero(trace.converged)[0])
    np.copyto(direction, residual)
    active = ~trace.converged
    for _ in range(budget):
        if not active.any():
            break
        trace.freeze_pending(workspace)
        with span("engine.sweep", engine="batch", queries=q,
                  solver="cg") as sweep:
            workspace.apply_system(direction, out=image)
            curvature = kernels.dot_per_query(direction, image, k)
            step = workspace._per_query(np.divide(
                squares, curvature, out=np.zeros(q), where=active))
            workspace._scaled_update(step, direction, solution)
            workspace._scaled_update(step, image, residual, subtract=True)
            new_squares = kernels.dot_per_query(residual, residual, k)
            bounds = np.sqrt(new_squares) * inverse_gap
            sweep.set_tag("residual", float(bounds.max()))
        trace.sweeps += 1
        for query in np.nonzero(active)[0]:
            trace.iterations[query] += 1
            trace.histories[query].append(float(bounds[query]))
        candidates = active & (bounds < tolerance)
        keep = active
        if candidates.any():
            true_squares = certify(candidates)
            restart = candidates & ~trace.converged
            for query in np.nonzero(restart)[0]:
                columns = slice(query * k, (query + 1) * k)
                residual[:, columns] = image[:, columns]
                new_squares[query] = true_squares[query]
            active = ~trace.converged
            keep = active & ~restart
        # Converged and restarted queries take a plain residual direction.
        momentum = workspace._per_query(np.divide(
            new_squares, squares, out=np.zeros(q), where=keep))
        np.multiply(direction, momentum, out=direction)
        np.add(direction, residual, out=direction)
        squares = new_squares
    if active.any():
        # Budget spent: report the certified bound of the final iterate.
        certify(active)


def run_batch(plan: PropagationPlan, explicit_list: Sequence[np.ndarray],
              initial_beliefs: Optional[Sequence[Optional[np.ndarray]]] = None,
              max_iterations: int = 100, tolerance: float = 1e-10,
              num_iterations: Optional[int] = None,
              require_convergence: bool = False,
              workspace: Optional[BatchWorkspace] = None,
              profile: bool = False
              ) -> List[PropagationResult]:
    """Propagate many explicit-belief matrices concurrently on one plan.

    Parameters mirror :meth:`repro.core.linbp.LinBP.run`, applied to every
    query of the batch; the returned list holds one
    :class:`PropagationResult` per query, in input order.  The solver is
    chosen once per batch, from the plan alone (:func:`solver_radius`):

    * **CG** (``extra["solver"] == "cg"``) when the plan has a certified
      ``ρ̄`` in ``[CG_MIN_RADIUS, 1)``.  Each query stops once its
      true-residual bound ``‖Ê − L(B)‖_F/(1 − ρ̄)`` — an upper bound on
      its largest belief error — is below ``tolerance``;
      ``iterations`` counts its CG steps, ``residual_history`` holds the
      bound after each step (the last entry recomputed from the
      iterate), and ``extra`` carries ``error_bound`` and
      ``radius_bound`` (``ρ̄``).
    * **Jacobi** (``"jacobi"``) otherwise, and always when
      ``num_iterations`` pins an exact sweep count: each query stops (is
      frozen) as soon as its own maximum belief change drops below
      ``tolerance``, and ``residual_history`` holds those changes.

    Either way a query's iteration count, convergence flag and beliefs
    are the same alone and at any position of any batch.

    ``workspace`` may supply a preallocated :class:`BatchWorkspace` (of
    matching width) to reuse across repeated batches.

    ``profile=True`` attaches a convergence profile (the residual
    trajectory next to the plan's Lemma 8 spectral radius — see
    :mod:`repro.obs.profile`) to every result's ``extra["profile"]``;
    the radius is an eigensolve on first use, cached on the plan.
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if len(explicit_list) == 0:
        return []
    if require_convergence and not plan.is_exactly_convergent():
        raise NotConvergentParametersError(
            f"{plan.method_name} does not converge for this coupling scale "
            f"(Lemma 8); reduce epsilon")
    if workspace is None:
        workspace = BatchWorkspace(plan, len(explicit_list))
    elif workspace.num_queries != len(explicit_list) or workspace.plan is not plan:
        raise ValidationError("workspace does not match this plan/batch width")
    workspace.load(explicit_list, initial_beliefs)
    q = len(explicit_list)
    fixed_iterations = num_iterations is not None
    radius = None if fixed_iterations else solver_radius(plan)
    trace = _Trace(q)
    if radius is None:
        _run_jacobi(workspace, trace, num_iterations if fixed_iterations
                    else max_iterations, tolerance, fixed_iterations)
    else:
        warm = initial_beliefs is not None \
            and any(start is not None for start in initial_beliefs)
        _run_cg(workspace, trace, max_iterations, tolerance, radius, warm)
    if trace.sweeps:
        SWEEPS.inc(trace.sweeps, engine="batch")
    results: List[PropagationResult] = []
    for query in range(q):
        beliefs = trace.frozen[query] if trace.frozen[query] is not None \
            else workspace.beliefs(query)
        history = trace.histories[query]
        done = bool(trace.converged[query]) if not fixed_iterations \
            else bool(history and history[-1] < tolerance)
        extra = {"echo_cancellation": plan.echo_cancellation,
                 "epsilon": plan.coupling.epsilon,
                 "engine": "batch",
                 "batch_size": q,
                 "solver": "jacobi" if radius is None else "cg"}
        if radius is not None:
            extra["error_bound"] = float(trace.error_bounds[query])
            extra["radius_bound"] = radius
        if profile:
            extra["profile"] = profile_batch_query(
                plan, history, int(trace.iterations[query]), done, tolerance)
        results.append(PropagationResult(
            beliefs=beliefs,
            method=plan.method_name,
            iterations=int(trace.iterations[query]),
            converged=done,
            residual_history=history,
            extra=extra,
        ))
    return results
