"""Cached per-graph propagation plans.

Every iterative solver needs the same per-``(graph, coupling)`` artifacts:
the CSR adjacency matrix in canonical float64 layout, the squared-weight
degree vector for the echo-cancellation term, the scaled residual coupling
``Ĥ`` and its square, and — when convergence guarantees are requested —
the Lemma 8 spectral radius of the update matrix.  Before the engine
existed, each of :func:`repro.core.linbp.linbp`, ``linbp_star`` and the
experiment paths recomputed these per call.

:class:`PropagationPlan` bundles the artifacts; :func:`get_plan` memoises
plans in a small process-wide LRU cache keyed by the *identity* of the
graph plus the *value* of the coupling (its residual entries and scale
``ε_H``) and the echo-cancellation flag.  Re-scaling the coupling — the
most common parameter change, e.g. an ``ε_H`` sweep — therefore yields a
fresh plan automatically; mutirequest traffic against the same graph and
coupling shares one plan and pays the precomputation once.

The binary (k = 2) closed forms of :mod:`repro.core.fabp` get the same
treatment: :func:`get_binary_solver` caches the sparse LU factorisation of
``I − c_a A + c_d D``, so repeated FaBP queries against one graph reduce
to two triangular solves each (and batches of right-hand sides to one
multi-RHS solve).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.coupling.matrices import CouplingMatrix
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.obs import counter, span

__all__ = ["PropagationPlan", "GraphKeyedCache", "get_plan",
           "get_binary_solver", "clear_plan_cache", "plan_cache_info",
           "register_auxiliary_cache", "coupling_key"]

#: Maximum number of cached propagation plans / binary factorisations.
PLAN_CACHE_SIZE = 32

#: Plan-cache outcomes, by plan kind (``linbp`` here, ``sbp`` in
#: :mod:`repro.engine.sbp_plan`).
PLAN_BUILDS = counter("repro_plan_builds_total",
                      "Propagation plans built (cache misses), by kind.")
PLAN_CACHE_HITS = counter("repro_plan_cache_hits_total",
                          "Propagation plans served from cache, by kind.")


class PropagationPlan:
    """Precomputed artifacts for propagating beliefs over one graph.

    Instances are created by :func:`get_plan` (which caches them) or
    directly for one-off use.  A plan is immutable once built; all fields
    derived from the coupling use the *scaled* residual ``Ĥ = ε_H·Ĥo``.

    Attributes
    ----------
    graph, coupling, echo_cancellation:
        The defining tuple; two plans coincide iff these match (coupling
        compared by value, graph by identity).  ``graph`` is held only
        weakly — the plan copies or shares every artifact it needs, so a
        cached plan never pins a dead graph in memory.
    adjacency:
        The graph's adjacency as canonical float64 CSR (sorted indices,
        no duplicates) — the layout the SpMM kernel requires.
    degrees:
        Squared-weight degree vector ``d`` (Section 5.2), or ``None`` for
        LinBP* where the echo term vanishes.
    residual, residual_squared:
        C-contiguous ``k x k`` float64 arrays ``Ĥ`` and ``Ĥ²``.
    is_symmetric:
        True when ``Ĥ`` and ``Ĥ²`` equal their transposes bit for bit —
        a precondition of the CG solve.
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix,
                 echo_cancellation: bool = True):
        # Only a weak reference to the graph wrapper is kept: the plan owns
        # (copies or shares) every artifact it needs, so a cached plan does
        # not pin large graphs in memory beyond their natural lifetime.
        self._graph_ref = weakref.ref(graph)
        self.coupling = coupling
        self.echo_cancellation = bool(echo_cancellation)
        adjacency = graph.adjacency
        if not adjacency.has_canonical_format:
            adjacency = adjacency.copy()
            adjacency.sum_duplicates()
        self.adjacency = adjacency
        self.degrees = np.ascontiguousarray(graph.degree_vector(),
                                            dtype=np.float64) \
            if echo_cancellation else None
        self.residual = np.ascontiguousarray(coupling.residual,
                                             dtype=np.float64)
        self.residual_squared = np.ascontiguousarray(
            coupling.residual_squared, dtype=np.float64)
        # CouplingMatrix accepts residuals symmetric to 1e-9; the CG solve
        # of repro.engine.batch needs its operator exactly symmetric.
        self.is_symmetric = bool(
            np.array_equal(self.residual, self.residual.T)
            and np.array_equal(self.residual_squared,
                               self.residual_squared.T))
        self._update_spectral_radius: Optional[float] = None
        self._update_radius_bound: Optional[float] = None
        self._eigenbasis: Optional[
            Tuple[np.ndarray, Tuple[sp.csr_matrix, ...]]] = None

    @property
    def graph(self) -> Optional[Graph]:
        """The graph this plan was built for (None once garbage collected)."""
        return self._graph_ref()

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.adjacency.shape[0]

    @property
    def num_classes(self) -> int:
        """Number of classes ``k``."""
        return self.residual.shape[0]

    @property
    def method_name(self) -> str:
        """``"LinBP"`` or ``"LinBP*"`` depending on echo cancellation."""
        return "LinBP" if self.echo_cancellation else "LinBP*"

    # ------------------------------------------------------------------ #
    # convergence bookkeeping (computed lazily, cached on the plan)
    # ------------------------------------------------------------------ #
    def update_spectral_radius(self) -> float:
        """Spectral radius of the update matrix — the exact Lemma 8 quantity.

        ``ρ(Ĥ⊗A − Ĥ²⊗D)`` for LinBP, ``ρ(Ĥ)·ρ(A) = ρ(Ĥ⊗A)`` for LinBP*.
        Computed on first use and cached for the lifetime of the plan, so
        per-query convergence checks against a hot plan are free.

        Both update matrices are symmetric (``Ĥ``, ``A`` and ``D`` are),
        so the symmetric Lanczos solver ``eigsh`` runs on a matrix-free
        operator that applies ``B ↦ A·B·Ĥ − D·B·Ĥ²`` through the plan's
        own arrays — no Kronecker product is assembled.  The start vector
        is fixed, so every process computes the same radius to the last
        bit (the CG stop of :mod:`repro.engine.batch` divides by
        ``1 − ρ``, and its iteration counts must not differ between a
        server and a process that checks its replies).
        """
        if self._update_spectral_radius is None:
            if self.echo_cancellation:
                self._update_spectral_radius = _update_radius(
                    self.adjacency, self.residual, self.degrees,
                    self.residual_squared)
            else:
                self._update_spectral_radius = (
                    self.coupling.spectral_radius()
                    * _update_radius(self.adjacency))
        return self._update_spectral_radius

    def update_radius_bound(self) -> float:
        """``ρ(Ĥ)·‖A‖∞ + ρ(Ĥ)²·‖d‖∞`` — an upper bound on the Lemma 8 radius.

        A Schur form ``Ĥ = UTUᴴ`` makes the update matrix ``Ĥ⊗A − Ĥ²⊗D``
        similar to a block-triangular one whose diagonal blocks are
        ``λ_c·A − λ_c²·D``, one per eigenvalue of ``Ĥ``; the ∞-norm of
        each block is at most ``|λ_c|·‖A‖∞ + |λ_c|²·‖d‖∞``.  So the bound
        holds for any ``Ĥ`` (``ρ(Ĥ)·‖A‖∞`` for LinBP*, where the echo term
        vanishes), costs the ``k x k`` eigenvalues of ``Ĥ`` and one pass
        over ``A``, and lets :func:`repro.engine.batch.solver_radius` skip
        the eigensolve.  Lazy and cached like the radius.

        ``‖A‖∞`` is the largest row sum ``A·1``: every validated
        :class:`Graph` has non-negative weights.  Only a graph built with
        ``validate=False`` can carry a negative weight, and only then are
        the absolute values summed instead.
        """
        if self._update_radius_bound is None:
            adjacency = self.adjacency
            adjacency_norm = 0.0
            if adjacency.nnz:
                if adjacency.data.min() < 0.0:
                    adjacency = abs(adjacency)
                adjacency_norm = float(
                    (adjacency @ np.ones(adjacency.shape[1])).max())
            coupling_radius = self.coupling.spectral_radius()
            bound = coupling_radius * adjacency_norm
            if self.echo_cancellation and self.degrees.size:
                bound += coupling_radius ** 2 * float(self.degrees.max())
            self._update_radius_bound = bound
        return self._update_radius_bound

    def eigenbasis(self) -> Tuple[np.ndarray, Tuple[sp.csr_matrix, ...]]:
        """``Q`` with ``Ĥ = QΛQᵀ``, and the ``k`` per-class systems ``M_c``.

        For a symmetric ``Ĥ`` (:attr:`is_symmetric`), ``C = B·Q`` turns
        Proposition 7's system ``B − A·B·Ĥ + D·B·Ĥ² = Ê`` into ``k``
        independent ``n x n`` systems ``M_c·C[:, c] = (Ê·Q)[:, c]`` with
        ``M_c = I − λ_c·A + λ_c²·D`` (``I − λ_c·A`` for LinBP*): the FaBP
        form of Appendix E once per eigenvalue ``λ_c`` of ``Ĥ``.  The
        conjugate gradients of :mod:`repro.engine.batch` solve them one
        class at a time.  ``Q`` comes from ``numpy.linalg.eigh`` (columns
        are eigenvectors), the ``M_c`` are canonical CSR.  Built on first
        use and cached, like the radius.
        """
        if self._eigenbasis is None:
            values, vectors = np.linalg.eigh(self.residual)
            adjacency = self.adjacency
            systems = []
            for value in values.tolist():
                diagonal = np.ones(self.num_nodes)
                if self.echo_cancellation:
                    diagonal += value * value * self.degrees
                system = sp.diags(diagonal, format="csr") \
                    - value * adjacency
                system.sum_duplicates()
                system.sort_indices()
                systems.append(system)
            self._eigenbasis = (np.ascontiguousarray(vectors),
                                tuple(systems))
        return self._eigenbasis

    def is_exactly_convergent(self) -> bool:
        """Exact Lemma 8 criterion: the iteration converges iff radius < 1."""
        return self.update_spectral_radius() < 1.0


#: Below this order the update matrix is assembled densely for the radius:
#: ARPACK needs a Krylov space smaller than the matrix.
_DENSE_RADIUS_ORDER = 64


def _update_radius(adjacency: sp.csr_matrix,
                   residual: Optional[np.ndarray] = None,
                   degrees: Optional[np.ndarray] = None,
                   squared: Optional[np.ndarray] = None) -> float:
    """``ρ(Ĥ⊗A − Ĥ²⊗D)``, or ``ρ(A)`` when ``residual`` is None.

    The LinBP operator is matrix-free: it maps a row-major ``n x k``
    block ``B`` to ``A·B·Ĥ − D·B·Ĥ²`` — the vectorised update matrix up to
    a permutation, which leaves the spectrum alone.  ``eigsh`` starts
    from a fixed pseudo-random vector (a constant one would lie in
    ``Ĥ``'s null space: residual rows sum to zero).  Small orders, and
    the rare ARPACK failure, go to :mod:`repro.graphs.linalg`.
    """
    from repro.graphs import linalg

    n = adjacency.shape[0]
    k = 1 if residual is None else residual.shape[0]
    order = n * k
    if order == 0 or adjacency.nnz == 0:
        return 0.0

    def assembled() -> float:
        if residual is None:
            return linalg.spectral_radius(adjacency)
        return linalg.kron_spectral_radius(
            residual, adjacency, degree=sp.diags(degrees, format="csr"))

    if order < _DENSE_RADIUS_ORDER:
        return assembled()
    operator = adjacency
    if residual is not None:
        def matvec(vector: np.ndarray) -> np.ndarray:
            block = vector.reshape(n, k)
            product = adjacency @ (block @ residual)
            product -= degrees[:, None] * (block @ squared)
            return product.ravel()

        operator = spla.LinearOperator((order, order), matvec=matvec,
                                       dtype=np.float64)
    start = np.random.default_rng(0).standard_normal(order)
    try:
        eigenvalues = spla.eigsh(operator, k=1, which="LM", v0=start,
                                 return_eigenvectors=False, maxiter=5000)
    except (spla.ArpackNoConvergence, spla.ArpackError):
        return assembled()
    return float(np.abs(eigenvalues[0]))


# ---------------------------------------------------------------------- #
# the plan cache
# ---------------------------------------------------------------------- #
class GraphKeyedCache:
    """Bounded, thread-safe LRU of per-graph artifacts (optionally TTL'd).

    Keys hold ``id(graph)`` plus a caller-supplied suffix; entries also
    hold a weakref to the graph to verify that the id was not recycled by
    a different object.  Neither the entry nor the cached value holds a
    strong reference to the graph wrapper, so entries are evicted as soon
    as their graph is garbage collected (the bounded LRU additionally
    caps how many values survive for long-lived graphs).  ``lookup``
    counts hits/misses; ``store`` inserts and trims.

    All operations take an internal re-entrant lock, so one cache may be
    shared by many threads (the propagation service's coalescer hits the
    plan and result caches concurrently).  The weakref eviction callback
    acquires the same lock; because it is re-entrant, a collection
    triggered *inside* a cache method cannot deadlock.

    ``ttl_seconds`` (optional) gives every entry a fixed lifetime from its
    last ``store``: expired entries behave as misses and are dropped on
    access.  ``clock`` is injectable for tests and must be monotonic.
    """

    def __init__(self, max_size: int, ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        self._max_size = max_size
        self._ttl = float(ttl_seconds) if ttl_seconds is not None else None
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: \
            "OrderedDict[tuple, Tuple[weakref.ref, object, Optional[float]]]" \
            = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "expired": 0}

    def lookup(self, graph: Graph, key_suffix: tuple):
        key = (id(graph),) + key_suffix
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                graph_ref, value, expires_at = entry
                if graph_ref() is not graph:
                    # id() was recycled by a new object; drop the stale entry.
                    del self._entries[key]
                elif expires_at is not None and self._clock() >= expires_at:
                    del self._entries[key]
                    self.stats["expired"] += 1
                else:
                    self._entries.move_to_end(key)
                    self.stats["hits"] += 1
                    return value
            self.stats["misses"] += 1
            return None

    def store(self, graph: Graph, key_suffix: tuple, value) -> None:
        key = (id(graph),) + key_suffix

        def _evict(_ref, key=key):
            with self._lock:
                self._entries.pop(key, None)

        expires_at = self._clock() + self._ttl if self._ttl is not None else None
        with self._lock:
            self._entries[key] = (weakref.ref(graph, _evict), value, expires_at)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = {"hits": 0, "misses": 0, "expired": 0}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_plan_cache = GraphKeyedCache(PLAN_CACHE_SIZE)


def coupling_key(coupling: CouplingMatrix) -> Tuple[float, bytes]:
    """Hashable value identity of a coupling matrix (scale + residual bytes).

    Used as a cache-key component wherever "same coupling" must mean
    *same values*, not same object: the plan cache below and the
    propagation service's batching/result keys.
    """
    residual = np.ascontiguousarray(coupling.unscaled_residual)
    return float(coupling.epsilon), residual.tobytes()


def get_plan(graph: Graph, coupling: CouplingMatrix,
             echo_cancellation: bool = True) -> PropagationPlan:
    """Return the (cached) propagation plan for a solver configuration.

    The cache key is ``(graph identity, echo flag, ε_H, Ĥo entries)``.
    Changing any component — e.g. re-scaling the coupling with
    :meth:`CouplingMatrix.scaled` — misses the cache and builds a fresh
    plan; the stale plan ages out of the bounded LRU (at most
    ``PLAN_CACHE_SIZE`` plans are retained, least recently used first).
    """
    key_suffix = (bool(echo_cancellation),) + coupling_key(coupling)
    plan = _plan_cache.lookup(graph, key_suffix)
    if plan is None:
        with span("engine.plan_build", kind="linbp",
                  nodes=graph.num_nodes):
            plan = PropagationPlan(graph, coupling,
                                   echo_cancellation=echo_cancellation)
        PLAN_BUILDS.inc(kind="linbp")
        _plan_cache.store(graph, key_suffix, plan)
    else:
        PLAN_CACHE_HITS.inc(kind="linbp")
    return plan


# Sibling engine caches (e.g. the SBP plan cache) register a clear
# function and an info function here so that clear_plan_cache() and
# plan_cache_info() cover the whole engine without import cycles.
_auxiliary_caches: list = []


def register_auxiliary_cache(clear, info) -> None:
    """Join a sibling engine cache to the clear/info reporting."""
    _auxiliary_caches.append((clear, info))


def clear_plan_cache() -> None:
    """Drop every cached plan and binary factorisation (mainly for tests)."""
    _plan_cache.clear()
    _binary_cache.clear()
    for clear, _info in _auxiliary_caches:
        clear()


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: current size plus cumulative hits/misses.

    Includes the auxiliary engine caches (e.g. ``sbp_size``/``sbp_hits``/
    ``sbp_misses`` from :mod:`repro.engine.sbp_plan`).
    """
    info = {"size": len(_plan_cache),
            "binary_size": len(_binary_cache),
            "hits": _plan_cache.stats["hits"],
            "misses": _plan_cache.stats["misses"]}
    for _clear, cache_info in _auxiliary_caches:
        info.update(cache_info())
    return info


# ---------------------------------------------------------------------- #
# cached binary (k = 2) factorisations for FaBP
# ---------------------------------------------------------------------- #
_binary_cache = GraphKeyedCache(PLAN_CACHE_SIZE)


def get_binary_solver(graph: Graph, h_residual: float,
                      variant: str = "linbp") -> Callable[[np.ndarray], np.ndarray]:
    """A cached direct solver for the binary system of Appendix E.

    Returns ``solve(rhs)`` backed by a sparse LU factorisation of
    ``I − c_a·A + c_d·D`` where the coefficients depend on ``variant``
    (see :func:`repro.core.fabp.fabp_closed_form`).  ``rhs`` may be a
    length-``n`` vector or an ``n x q`` matrix of stacked right-hand
    sides — SuperLU solves all ``q`` queries in one call, which is the
    binary analogue of :func:`repro.engine.batch.run_batch`.
    """
    h = float(h_residual)
    if variant == "exact":
        if abs(h) >= 0.5:
            raise ValidationError("the exact FABP variant requires |h| < 1/2")
        factor_a = 2.0 * h / (1.0 - 4.0 * h * h)
        factor_d = 4.0 * h * h / (1.0 - 4.0 * h * h)
    elif variant == "linbp":
        factor_a = 2.0 * h
        factor_d = 4.0 * h * h
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    solve = _binary_cache.lookup(graph, (h, variant))
    if solve is not None:
        return solve
    degree = sp.diags(graph.degree_vector(), format="csr")
    system = (sp.identity(graph.num_nodes, format="csr")
              - factor_a * graph.adjacency + factor_d * degree)
    lu = spla.splu(system.tocsc())

    def solve(rhs: np.ndarray) -> np.ndarray:
        return lu.solve(np.asarray(rhs, dtype=np.float64))

    _binary_cache.store(graph, (h, variant), solve)
    return solve
