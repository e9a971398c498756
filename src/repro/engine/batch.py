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
  ``√κ`` steps, ``κ = (1+ρ)/(1−ρ)``.  In ``Ĥ``'s eigenbasis ``Ĥ = QΛQᵀ``
  the system splits into ``k`` independent ``n x n`` systems ``M_c =
  I − λ_c·A + λ_c²·D`` (:meth:`~repro.engine.plan.PropagationPlan
  .eigenbasis`), one per class of ``C = B·Q``; each (query, class) runs
  its own CG on contiguous ``n``-vectors, one SpMV per step, and stops
  on its own.  The classes converge at very different speeds (a small
  ``|λ_c|`` needs few steps, and the ``λ = 0`` class of a centered ``Ê``
  none).  Each query stops on a certified bound: its true residual
  ``‖Ê − L(B)‖_F``, recomputed from the iterate rotated back to ``B``,
  over ``1 − ρ̄`` (``ρ̄ ≥ ρ``, so ``‖L⁻¹‖₂ ≤ 1/(1 − ρ̄)``) bounds its
  largest belief error, and must fall below ``tolerance``.

:class:`BatchWorkspace` owns the preallocated buffers and performs one
Jacobi step, or one application of ``L``, with zero per-iteration
allocation of ``n x (q·k)`` blocks, and holds the ``(q, k, n)`` blocks of
a CG solve; :func:`run_batch` drives it to convergence and unpacks one
:class:`~repro.core.results.PropagationResult` per query.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.beliefs.beliefs import checked_explicit
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
#: steps, and its stop costs one more application of ``L``.  A sweep runs
#: one SpMM over the whole batch, a CG step one SpMV per running (query,
#: class), so the crossover depends on the batch width.  Measured
#: in-process on a 2-CPU host: one query meets Jacobi near ``ρ = 0.17``
#: on Kronecker #3 (n = 2,187) and #4 (n = 6,561) and runs 1.5x faster
#: at ``ρ = 0.43``; a batch of 16, the coalescer's largest, meets it near
#: ``ρ = 0.3`` on #3 and ``0.25`` on #4 and runs 1.2-1.35x faster at
#: ``0.43``.  From this radius CG is at least as fast at every width,
#: and the plan's radius bound (``ρ(Ĥ)`` and one pass over ``A``) usually
#: decides a plan below it without an eigensolve.
CG_MIN_RADIUS = 0.4


def solver_radius(plan: PropagationPlan) -> Optional[float]:
    """The certified ``ρ̄`` a CG solve on ``plan`` stops with, or None.

    None means Eq. 6 Jacobi sweeps answer: an ``Ĥ`` that is not exactly
    symmetric, a radius below :data:`CG_MIN_RADIUS` (Jacobi is cheaper)
    or at least one (``L`` is not positive definite).  The cheap bound
    goes first: ``plan.update_radius_bound()`` bounds ``ρ`` from
    above, so when it is below the crossover the plan never pays the
    eigensolve; only when it cannot decide does the plan's cached
    Lemma 8 radius.
    """
    if not plan.is_symmetric:
        return None
    if plan.update_radius_bound() < CG_MIN_RADIUS:
        return None
    radius = plan.update_spectral_radius()
    if CG_MIN_RADIUS <= radius < 1.0:
        return radius
    return None


class BatchWorkspace:
    """Preallocated buffers for propagating a ``q``-query batch on one plan.

    All working memory — the stacked explicit block, the ping-pong belief
    buffers, one scratch block and the degree vector tiled to the block's
    width — is allocated once in the constructor; :meth:`step` then
    performs one full LinBP update of every query with in-place kernel
    writes only.  A CG solve works in ``Ĥ``'s eigenbasis on ``(q, k, n)``
    blocks: its iterate lives in the Jacobi back buffer, and the residual,
    search direction and its image are allocated on the first CG solve
    and kept.  Workspaces are reusable: call :meth:`load` again to start
    a new batch of the same width.
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
        self._degree_block = kernels.tile_rows(plan.degrees, shape[1]) \
            if plan.echo_cancellation else None
        self._negated_residual = -plan.residual
        self._eigen_blocks: Optional[tuple] = None

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
        n, k = self.plan.num_nodes, self.plan.num_classes
        self._front[...] = 0.0
        checked = [checked_explicit(explicit, n, k)
                   for explicit in explicit_list]
        if n:
            np.concatenate(checked, axis=1, out=self._explicit)
        if initial_beliefs is not None:
            for query, start in enumerate(initial_beliefs):
                if start is None:
                    continue
                if np.shape(start) != checked[query].shape:
                    raise ValidationError(
                        "initial beliefs must have the same shape as Ê")
                self._front[:, query * k:(query + 1) * k] = \
                    checked_explicit(start, n, k)

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
            kernels.scale_rows(self._degree_block, self._scratch,
                               out=self._scratch)
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
            kernels.scale_rows(self._degree_block, out, out=out)
            np.add(out, block, out=out)
        else:
            np.copyto(out, block)
        kernels.block_matmul(block, self._negated_residual,
                             out=self._scratch, num_classes=k)
        kernels.spmm(plan.adjacency, self._scratch, out=out, accumulate=True)
        return out

    def _eigen_buffers(self) -> tuple:
        """The CG blocks ``(iterate, residual, direction, image)``, each
        ``(q, k, n)``, plus an ``n``-vector scratch.

        Query ``j``'s class ``c`` is the contiguous row ``[j, c]`` of each
        block, so every per-class product and reduction runs on an
        ``n``-vector, whatever the batch.  The iterate is the back buffer
        seen as ``(q, k, n)``: CG never sweeps, and it recomputes true
        residuals into the image block, which every step overwrites.
        """
        n, k = self.plan.num_nodes, self.plan.num_classes
        shape = (self.num_queries, k, n)
        if self._eigen_blocks is None:
            self._eigen_blocks = tuple(np.empty(shape) for _ in range(3)) \
                + (np.empty(n),)
        # Sweeps swap the ping-pong buffers, so the view is taken anew.
        return (self._back.reshape(shape),) + self._eigen_blocks

    def _rotate(self, block: np.ndarray, query: int, vectors_t: np.ndarray,
                out: np.ndarray) -> None:
        """``out <- (block_j·Q)ᵀ``: one query's ``n x k`` block of an
        ``n x (q·k)`` buffer, in ``Ĥ``'s eigenbasis, as ``k`` rows."""
        columns = self._class_rows()
        k = self.plan.num_classes
        np.copyto(columns, block[:, query * k:(query + 1) * k].T)
        np.matmul(vectors_t, columns, out=out)

    def _unrotate(self, rotated: np.ndarray, query: int,
                  vectors: np.ndarray) -> None:
        """Front block of one query ``<- C·Qᵀ``, from its ``k`` rows ``C``."""
        columns = self._class_rows()
        k = self.plan.num_classes
        np.matmul(vectors, rotated, out=columns)
        self._front[:, query * k:(query + 1) * k] = columns.T

    def _class_rows(self) -> np.ndarray:
        """A ``k x n`` view of the scratch block, free outside
        :meth:`step` and :meth:`apply_system`."""
        k, n = self.plan.num_classes, self.plan.num_nodes
        return self._scratch.reshape(-1)[:k * n].reshape(k, n)

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
    """Conjugate gradients on ``L(B) = Ê``, one eigen-class at a time.

    In ``Ĥ``'s eigenbasis (:meth:`PropagationPlan.eigenbasis`) the system
    splits into ``k`` systems ``M_c·c = r_c`` per query; each (query,
    class) runs its own CG on contiguous ``n``-vectors, with its own step
    sizes, until its recurrence residual is below ``τ/√k``, ``τ =
    tolerance·(1 − ρ̄)``: then ``Σ_c‖r_c‖² < τ²``.  That only nominates
    the query.  Its beliefs are rotated back (``B = C·Qᵀ``), the true
    residual is recomputed from them (one batched application of ``L``),
    and the query converges only if *that* bound holds.  Otherwise the
    rotated true residual restarts every class of that query whose
    residual is not zero — even one below ``τ/√k``, so that the query
    steps again when rounding put every class under it.  Every reduction
    sums ``n`` elements of one (query, class) in an order fixed by ``n``,
    so a query's trajectory does not depend on the batch around it.
    """
    plan = workspace.plan
    q, k = workspace.num_queries, plan.num_classes
    vectors, systems = plan.eigenbasis()
    vectors_t = np.ascontiguousarray(vectors.T)
    solution, residual, direction, image, scratch = \
        workspace._eigen_buffers()
    # True residuals land in the image block, in the n x (q·k) layout.
    true_residual = image.reshape(workspace._back.shape)
    inverse_gap = 1.0 / (1.0 - radius)
    class_tolerance = tolerance * (1.0 - radius) / math.sqrt(k)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    total, spmv = np.add.reduce, kernels.spmv
    # Per (query, class): ‖r‖² and whether it still steps.
    squares = [[0.0] * k for _ in range(q)]
    running = [[False] * k for _ in range(q)]

    def restart(query: int, floor: float) -> None:
        """Direction <- residual for every class of a query; run the
        classes whose residual norm is above ``floor``."""
        np.copyto(direction[query], residual[query])
        for klass in range(k):
            multiply(residual[query, klass], residual[query, klass],
                     out=scratch)
            squares[query][klass] = float(total(scratch))
            running[query][klass] = math.sqrt(squares[query][klass]) > floor

    def certify(queries, again: bool) -> None:
        """True-residual bounds; converge the queries that hold, and
        restart the others' classes when ``again``."""
        for query in queries:
            workspace._unrotate(solution[query], query, vectors)
        with span("engine.certify", engine="batch", queries=q):
            true_squares = workspace._true_residual(true_residual)
        bounds = np.sqrt(true_squares) * inverse_gap
        for query in queries:
            trace.error_bounds[query] = bounds[query]
            if trace.histories[query]:
                trace.histories[query][-1] = float(bounds[query])
            if bounds[query] < tolerance:
                trace.converged[query] = True
            elif again:
                workspace._rotate(true_residual, query, vectors_t,
                                  residual[query])
                restart(query, 0.0)

    if warm:
        with span("engine.certify", engine="batch", queries=q):
            start = workspace._true_residual(true_residual)
        start_block = true_residual
    else:
        start = kernels.dot_per_query(workspace._explicit,
                                      workspace._explicit, k)
        start_block = workspace._explicit
    # r⁰ is a true residual: a query already within tolerance needs no step.
    trace.error_bounds = np.sqrt(start) * inverse_gap
    trace.converged[:] = trace.error_bounds < tolerance
    for query in np.nonzero(~trace.converged)[0]:
        workspace._rotate(start_block, query, vectors_t, residual[query])
        if warm:
            workspace._rotate(workspace._front, query, vectors_t,
                              solution[query])
        else:
            solution[query].fill(0.0)
        restart(query, class_tolerance)
    for _ in range(budget):
        nominated = [query for query in range(q)
                     if not trace.converged[query] and not any(running[query])]
        if nominated:
            certify(nominated, again=True)
        stepping = [query for query in range(q) if any(running[query])]
        if not stepping:
            break
        with span("engine.sweep", engine="batch", queries=q,
                  solver="cg") as sweep:
            for query in stepping:
                for klass in range(k):
                    if not running[query][klass]:
                        continue
                    x, r = solution[query, klass], residual[query, klass]
                    p, image_p = direction[query, klass], image[query, klass]
                    spmv(systems[klass], p, out=image_p)
                    multiply(p, image_p, out=scratch)
                    curvature = float(total(scratch))
                    if not curvature > 0.0:
                        # Underflow, or a radius bound below the true ρ:
                        # no step; certification decides the query.
                        running[query][klass] = False
                        continue
                    old = squares[query][klass]
                    step = old / curvature
                    multiply(p, step, out=scratch)
                    add(x, scratch, out=x)
                    multiply(image_p, step, out=scratch)
                    subtract(r, scratch, out=r)
                    multiply(r, r, out=scratch)
                    new = float(total(scratch))
                    squares[query][klass] = new
                    if math.sqrt(new) < class_tolerance:
                        running[query][klass] = False
                    else:
                        multiply(p, new / old, out=p)
                        add(p, r, out=p)
            bounds = [math.sqrt(sum(squares[query])) * inverse_gap
                      for query in stepping]
            sweep.set_tag("residual", max(bounds))
        trace.sweeps += 1
        for query, bound in zip(stepping, bounds):
            trace.iterations[query] += 1
            trace.histories[query].append(bound)
    unfinished = np.nonzero(~trace.converged)[0].tolist()
    if unfinished:
        # Nominated at the last step, or out of budget: certify the iterate.
        certify(unfinished, again=False)


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
      ``iterations`` counts the batched CG steps in which at least one
      of its classes still stepped, ``residual_history`` holds
      ``√(Σ_c‖r_c‖²)/(1 − ρ̄)`` after each of them (the last entry
      recomputed from the iterate), and ``extra`` carries
      ``error_bound`` and ``radius_bound`` (``ρ̄``).
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
