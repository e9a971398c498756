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
from repro.engine import backend as array_backend
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
    graph, coupling, echo_cancellation, dtype, backend:
        The defining tuple; two plans coincide iff these match (coupling
        compared by value, graph by identity, dtype/backend by canonical
        name).  ``graph`` is held only weakly — the plan copies or shares
        every artifact it needs, so a cached plan never pins a dead graph
        in memory.
    adjacency:
        The graph's adjacency as canonical CSR (sorted indices, no
        duplicates) in the plan's dtype on the plan's array backend —
        the layout the SpMM kernel requires.  ``float64`` on ``numpy``
        (the defaults) is byte-identical to the historical layout.
    degrees:
        Squared-weight degree vector ``d`` (Section 5.2), or ``None`` for
        LinBP* where the echo term vanishes.
    residual, residual_squared:
        C-contiguous ``k x k`` arrays ``Ĥ`` and ``Ĥ²`` in the plan's
        dtype.
    """

    def __init__(self, graph: Graph, coupling: CouplingMatrix,
                 echo_cancellation: bool = True,
                 dtype=array_backend.DEFAULT_DTYPE,
                 backend: str = "numpy"):
        # Only a weak reference to the graph wrapper is kept: the plan owns
        # (copies or shares) every artifact it needs, so a cached plan does
        # not pin large graphs in memory beyond their natural lifetime.
        self._graph_ref = weakref.ref(graph)
        self.coupling = coupling
        self.echo_cancellation = bool(echo_cancellation)
        self.dtype: np.dtype = array_backend.canonical_dtype(dtype)
        self.backend: array_backend.ArrayBackend = \
            array_backend.get_array_backend(backend)
        adjacency = graph.adjacency
        if not adjacency.has_canonical_format:
            adjacency = adjacency.copy()
            adjacency.sum_duplicates()
        if adjacency.dtype != self.dtype:
            adjacency = adjacency.astype(self.dtype)
        self.adjacency = self.backend.csr(adjacency, self.dtype)
        self.degrees = self.backend.asarray(
            graph.degree_vector(), self.dtype) if echo_cancellation else None
        self.residual = self.backend.asarray(coupling.residual, self.dtype)
        self.residual_squared = self.backend.asarray(
            coupling.residual_squared, self.dtype)
        self._update_spectral_radius: Optional[float] = None
        self._operator_infinity_norm: Optional[float] = None

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
    def _host_adjacency64(self) -> sp.csr_matrix:
        """The adjacency as host (scipy) CSR float64, for analysis paths."""
        adjacency = self.adjacency
        if not isinstance(adjacency, sp.csr_matrix):  # pragma: no cover - GPU
            adjacency = adjacency.get()
        if adjacency.dtype != np.float64:
            adjacency = adjacency.astype(np.float64)
        return adjacency

    def update_spectral_radius(self) -> float:
        """Spectral radius of the update matrix — the exact Lemma 8 quantity.

        ``ρ(Ĥ⊗A − Ĥ²⊗D)`` for LinBP, ``ρ(Ĥ)·ρ(A) = ρ(Ĥ⊗A)`` for LinBP*.
        Computed on first use and cached for the lifetime of the plan, so
        per-query convergence checks against a hot plan are free.  The
        eigensolve always runs in float64 on the host, whatever dtype or
        backend the plan's kernel artifacts use — a certification bound
        must not itself be computed in the precision it certifies.
        """
        if self._update_spectral_radius is None:
            from repro.graphs import linalg
            adjacency = self._host_adjacency64()
            if self.echo_cancellation:
                degrees = np.asarray(self.backend.to_numpy(self.degrees),
                                     dtype=np.float64)
                degree = sp.diags(degrees, format="csr")
                self._update_spectral_radius = linalg.kron_spectral_radius(
                    np.asarray(self.coupling.residual, dtype=np.float64),
                    adjacency, degree=degree)
            else:
                self._update_spectral_radius = (
                    self.coupling.spectral_radius()
                    * linalg.spectral_radius(adjacency))
        return self._update_spectral_radius

    def operator_infinity_norm(self) -> float:
        """``‖Ĥᵀ⊗A − (Ĥ²)ᵀ⊗D‖∞`` — magnitude bound of one update sweep.

        The ∞-norm of the LinBP update operator: how much one sweep can
        amplify the *magnitude* of the belief block (``‖A‖∞·‖Ĥ‖∞ +
        ‖d‖∞·‖Ĥ²‖∞``; the echo term enters additively because the norm
        is submultiplicative, not signed).  Together with the Lemma 8
        spectral radius this prices the float32 rounding budget of
        :mod:`repro.engine.precision`: the radius bounds how errors
        *accumulate* across sweeps, this norm bounds how large the
        intermediate quantities each sweep rounds can get.  Lazy and
        cached like the radius; always computed in float64.
        """
        if self._operator_infinity_norm is None:
            adjacency = self._host_adjacency64()
            adjacency_norm = float(abs(adjacency).sum(axis=1).max()) \
                if adjacency.nnz else 0.0
            residual64 = np.asarray(self.coupling.residual, dtype=np.float64)
            norm = adjacency_norm * float(np.abs(residual64).sum(axis=1).max())
            if self.echo_cancellation:
                degrees = np.asarray(self.backend.to_numpy(self.degrees),
                                     dtype=np.float64)
                squared64 = np.asarray(self.coupling.residual_squared,
                                       dtype=np.float64)
                degree_norm = float(degrees.max()) if degrees.size else 0.0
                norm += degree_norm * \
                    float(np.abs(squared64).sum(axis=1).max())
            self._operator_infinity_norm = norm
        return self._operator_infinity_norm

    def is_exactly_convergent(self) -> bool:
        """Exact Lemma 8 criterion: the iteration converges iff radius < 1."""
        return self.update_spectral_radius() < 1.0

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def check_explicit(self, explicit_residuals: np.ndarray) -> np.ndarray:
        """Validate one ``n x k`` explicit-belief matrix against the plan.

        Returns the matrix in the plan's dtype (a view when it already
        matches, a cast copy otherwise).
        """
        explicit = np.asarray(explicit_residuals, dtype=self.dtype)
        if explicit.ndim != 2:
            raise ValidationError("explicit beliefs must be a 2-D matrix")
        if explicit.shape[0] != self.num_nodes:
            raise ValidationError(
                f"expected {self.num_nodes} rows, got {explicit.shape[0]}")
        if explicit.shape[1] != self.num_classes:
            raise ValidationError(
                f"expected {self.num_classes} columns, got {explicit.shape[1]}")
        return explicit


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
             echo_cancellation: bool = True,
             dtype=array_backend.DEFAULT_DTYPE,
             backend: str = "numpy") -> PropagationPlan:
    """Return the (cached) propagation plan for a solver configuration.

    The cache key is ``(graph identity, echo flag, dtype, backend, ε_H,
    Ĥo entries)``.  Changing any component — re-scaling the coupling
    with :meth:`CouplingMatrix.scaled`, or asking for a float32 plan
    next to an existing float64 one — misses the cache and builds a
    fresh plan; the stale plan ages out of the bounded LRU (at most
    ``PLAN_CACHE_SIZE`` plans are retained, least recently used first).
    """
    key_suffix = (bool(echo_cancellation),
                  array_backend.dtype_name(dtype), backend) \
        + coupling_key(coupling)
    plan = _plan_cache.lookup(graph, key_suffix)
    if plan is None:
        with span("engine.plan_build", kind="linbp",
                  nodes=graph.num_nodes):
            plan = PropagationPlan(graph, coupling,
                                   echo_cancellation=echo_cancellation,
                                   dtype=dtype, backend=backend)
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
