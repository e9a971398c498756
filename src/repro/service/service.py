"""The propagation service: snapshots, maintained views, coalesced queries.

:class:`PropagationService` is the traffic-serving layer on top of the
batched engines.  It owns three pieces of state:

* **Versioned graph snapshots.**  Every registered graph is wrapped in an
  immutable :class:`GraphSnapshot` ``(name, version, graph)``.  Mutations
  (:meth:`PropagationService.update`) never modify a
  :class:`~repro.graphs.graph.Graph` in place — they build the successor
  graph, route the change through the existing incremental paths (ΔSBP
  Algorithms 3/4 for SBP views, superposition / warm restarts for LinBP
  views), and atomically install a snapshot with a bumped version.  A
  query pins its snapshot on entry, so in-flight queries always see a
  consistent graph no matter how many updates land concurrently.

* **A micro-batching coalescer.**  Concurrent single-query requests that
  share a batch key — ``(snapshot, method, coupling values, solver
  parameters)``, plus the labeled-node set for SBP — are collected for a
  short window and dispatched as *one*
  :func:`repro.engine.batch.run_batch` /
  :func:`repro.engine.sbp_plan.run_sbp_batch` stacked call (see
  :mod:`repro.service.coalescer`).  Results are equivalent to sequential
  single-query calls to 1e-10.

* **TTL+LRU caches.**  Results are cached in a lock-protected
  :class:`repro.engine.plan.GraphKeyedCache` keyed by the snapshot's
  graph object plus a digest of the request, with a TTL; because every
  update installs a *new* graph object and the key carries the version,
  stale results can never be served after a mutation.  Plans are cached
  by the engine itself (:func:`repro.engine.plan.get_plan` /
  :func:`repro.engine.sbp_plan.get_sbp_plan`), which the coalescer turns
  into cross-request reuse.

Thread safety: the graph registry and counters are guarded by one
re-entrant lock that is only ever held for dictionary operations;
mutations (updates, view creation) serialise on a *per-graph* lock, and
queries pin their snapshot with a single attribute read — so propagation
work never serialises on the registry, and a long repair on one graph
never blocks queries (on any graph).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.incremental import IncrementalLinBP
from repro.core.results import PropagationResult
from repro.core.sbp import SBP
from repro.coupling.matrices import CouplingMatrix
from repro.engine import batch as engine_batch
from repro.engine import plan as engine_plan
from repro.engine import precision as engine_precision
from repro.engine import sbp_plan as engine_sbp
from repro.exceptions import ValidationError
from repro.graphs.graph import Edge, Graph
from repro.obs import MetricsRegistry, counter, span
from repro.service.coalescer import MicroBatcher
from repro.service.spec import METHODS as _METHODS
from repro.service.spec import QuerySpec

__all__ = ["GraphSnapshot", "PropagationService"]

#: Process-global telemetry (honours ``REPRO_OBS_DISABLED``); the
#: request accounting behind ``stats()`` lives on each service's own
#: always-on registry instead — see ``PropagationService.registry``.
RESULT_CACHE_LOOKUPS = counter(
    "repro_service_result_cache_lookups_total",
    "Result-cache probes on the query path, by outcome (hit/miss).")


def _require_finite(beliefs: Union[Mapping[int, np.ndarray], np.ndarray]
                    ) -> None:
    """Reject NaN or ±Infinity beliefs, naming the first offending cell.

    ``beliefs`` is an ``n × k`` matrix or a ``node -> vector`` mapping,
    the two shapes :meth:`PropagationService.update` accepts.
    """
    if isinstance(beliefs, Mapping):
        rows = ((node, np.asarray(vector, dtype=float).ravel())
                for node, vector in beliefs.items())
    else:
        matrix = np.atleast_2d(np.asarray(beliefs, dtype=float))
        if np.isfinite(matrix).all():
            return
        rows = enumerate(matrix)
    for node, row in rows:
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            klass = int(bad[0])
            raise ValidationError(
                f"belief value {row[klass]} for node {node} class {klass} "
                "is not finite")


def _check_config_value(key: str, value: object) -> None:
    """Validate one serving-config ``service`` value, naming the key.

    Ranges the constructor would reject anyway are re-checked here so
    the error message always carries the artifact's key name and the
    accepted values — ``from_config`` errors must be actionable against
    the JSON the operator is editing.
    """

    def reject(accepted: str) -> None:
        raise ValidationError(
            f"serving config key 'service.{key}' must be {accepted}, "
            f"got {value!r}")

    def is_int(minimum: int) -> bool:
        return (isinstance(value, int) and not isinstance(value, bool)
                and value >= minimum)

    def is_number(minimum: float) -> bool:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and value >= minimum)

    if key == "window_ms":
        if not is_number(0.0):
            reject("a number >= 0 (milliseconds; 0 disables coalescing)")
    elif key == "max_batch":
        if not is_int(1):
            reject("an integer >= 1")
    elif key == "result_cache_size":
        if not is_int(0):
            reject("an integer >= 0 (0 disables the result cache)")
    elif key == "result_ttl_seconds":
        if value is not None and not is_number(0.0):
            reject("a number >= 0 or null (null keeps entries until "
                   "LRU eviction)")
    elif key == "snapshot_history":
        if not is_int(0):
            reject("an integer >= 0 (0 disables stale serving)")


@dataclass(frozen=True)
class GraphSnapshot:
    """One immutable version of a registered graph.

    Queries pin a snapshot at submission; updates install a successor
    with ``version + 1`` and (for edge updates) a new ``graph`` object.
    """

    name: str
    version: int
    graph: Graph


class _MaintainedView:
    """A named, incrementally maintained propagation result.

    Wraps one of the existing maintained runners — :class:`SBP` for the
    single-pass family, :class:`IncrementalLinBP` for the LinBP family —
    and relies on their update hooks for change accounting.
    """

    def __init__(self, name: str, method: str, runner):
        self.name = name
        self.method = method
        self.runner = runner
        self.last_result: Optional[PropagationResult] = None
        self.nodes_updated_total = 0
        runner.add_update_hook(self._on_update)

    def _on_update(self, event) -> None:
        if event.nodes_updated is not None:
            self.nodes_updated_total += int(event.nodes_updated)


class _GraphEntry:
    """Registry slot: the current snapshot plus the maintained views.

    ``lock`` serialises *mutations* of this one graph (updates and view
    creation, which must see a consistent graph and apply in order).
    Reading ``snapshot`` needs no lock — the attribute always points at
    a fully built immutable :class:`GraphSnapshot`, so queries pin their
    version with a single attribute read and never wait behind a
    long-running repair on this (or any other) graph.
    """

    def __init__(self, snapshot: GraphSnapshot):
        self.snapshot = snapshot
        self.views: Dict[str, _MaintainedView] = {}
        self.lock = threading.RLock()
        # Recent snapshots, oldest first and ending in the current one.
        # A *tuple*, replaced wholesale on every install: staleness-bounded
        # queries read it with one attribute load, lock-free — the same
        # discipline as ``snapshot`` itself.
        self.history: Tuple[GraphSnapshot, ...] = (snapshot,)


class PropagationService:
    """Thread-safe propagation front end over both engines.

    Parameters
    ----------
    window_seconds, max_batch:
        Coalescing behaviour (see :class:`~repro.service.coalescer
        .MicroBatcher`).  ``window_seconds=0`` disables coalescing.
    result_cache_size, result_ttl_seconds:
        LRU capacity and entry lifetime of the result cache; ``None``
        TTL keeps results until evicted by LRU or a graph update.
    clock:
        Monotonic clock, injectable for tests (drives the TTL).
    snapshot_history:
        How many *past* snapshots to retain per graph (beyond the
        current one) for staleness-bounded reads: a query carrying
        ``max_staleness=s`` may be answered from the result cache of any
        version within ``s`` of current (see :meth:`query`).  ``0``
        disables stale serving.
    """

    def __init__(self, window_seconds: float = 0.002, max_batch: int = 16,
                 result_cache_size: int = 256,
                 result_ttl_seconds: Optional[float] = 300.0,
                 clock: Callable[[], float] = time.monotonic,
                 snapshot_history: int = 4):
        if snapshot_history < 0:
            raise ValidationError("snapshot_history must be >= 0")
        self._lock = threading.RLock()
        self._graphs: Dict[str, _GraphEntry] = {}
        self.batcher = MicroBatcher(window_seconds=window_seconds,
                                    max_batch=max_batch)
        self.results = engine_plan.GraphKeyedCache(
            result_cache_size, ttl_seconds=result_ttl_seconds, clock=clock)
        # Request accounting lives on a per-instance, *always-on* metrics
        # registry: these counters back the public ``stats()`` contract
        # (state, not optional telemetry), so they keep counting under
        # ``REPRO_OBS_DISABLED=1`` and never mix across service instances.
        # The ``metrics`` wire op and ``render_prometheus`` export this
        # registry next to the process-global one.
        self.registry = MetricsRegistry(always_on=True)
        self._m_queries = self.registry.counter(
            "repro_service_queries_total",
            "Propagation queries accepted, by graph.")
        self._m_updates = self.registry.counter(
            "repro_service_updates_total",
            "Graph mutations applied, by graph.")
        self._m_stale_hits = self.registry.counter(
            "repro_service_stale_hits_total",
            "Queries answered from a staleness-bounded older version, "
            "by graph.")
        self._m_snapshot_version = self.registry.gauge(
            "repro_service_snapshot_version",
            "Current snapshot version, by graph.")
        self._snapshot_history = int(snapshot_history)
        #: Spec used for queries that pass ``spec=None``.  Plain
        #: construction leaves it unset (``None`` → ``QuerySpec()``);
        #: :meth:`from_config` installs the artifact's ``query`` section
        #: here so a tuned service answers un-spec'd requests with its
        #: tuned solver settings.
        self.default_spec: Optional[QuerySpec] = None

    # ------------------------------------------------------------------ #
    # serving-config artifacts
    # ------------------------------------------------------------------ #
    #: Artifact schema version :meth:`from_config` accepts.
    CONFIG_VERSION = 1
    _CONFIG_TOP_KEYS = ("version", "kind", "service", "query", "meta")
    #: Accepted ``service`` section keys.  ``window_ms`` is declared in
    #: milliseconds (artifacts are human-edited JSON; 2.0 ms reads
    #: better than 0.002 s) and mapped onto ``window_seconds`` here.
    _CONFIG_SERVICE_KEYS = (
        "window_ms", "max_batch", "result_cache_size", "result_ttl_seconds",
        "snapshot_history")

    @classmethod
    def from_config(cls, config: Dict[str, object], *,
                    clock: Callable[[], float] = time.monotonic
                    ) -> "PropagationService":
        """Build a service from a serving-config artifact.

        ``config`` is the JSON document ``repro tune`` emits (and
        ``repro serve --config`` loads)::

            {"version": 1,
             "kind": "repro-serving-config",        # optional
             "service": {"window_ms": 2.0, "max_batch": 16, ...},
             "query":   {"dtype": "float32", ...},  # optional
             "meta":    {...}}                      # optional, ignored

        Validation is strict and names what it rejects: unknown keys at
        either level are errors listing the accepted keys, every value
        error names the offending key and the accepted values, and the
        required ``version`` field rejects artifacts from a future
        schema instead of misreading them.  The optional ``query``
        section becomes :attr:`default_spec` — the spec answering
        queries that do not bring their own.
        """
        if not isinstance(config, dict):
            raise ValidationError(
                "serving config must be a JSON object, got "
                f"{type(config).__name__}")
        unknown = sorted(set(config) - set(cls._CONFIG_TOP_KEYS))
        if unknown:
            raise ValidationError(
                f"serving config has unknown key(s) {unknown}; accepted "
                f"keys: {sorted(cls._CONFIG_TOP_KEYS)}")
        if "version" not in config:
            raise ValidationError(
                "serving config is missing the required 'version' field "
                f"(current version: {cls.CONFIG_VERSION})")
        version = config["version"]
        if version != cls.CONFIG_VERSION or isinstance(version, bool):
            raise ValidationError(
                f"unsupported serving-config version {version!r}; this "
                f"build accepts version {cls.CONFIG_VERSION}")
        kind = config.get("kind", "repro-serving-config")
        if kind != "repro-serving-config":
            raise ValidationError(
                f"serving config key 'kind' must be "
                f"'repro-serving-config', got {kind!r}")
        if "service" not in config:
            raise ValidationError(
                "serving config is missing the required 'service' section")
        service = config["service"]
        if not isinstance(service, dict):
            raise ValidationError(
                "serving config key 'service' must be an object, got "
                f"{type(service).__name__}")
        unknown = sorted(set(service) - set(cls._CONFIG_SERVICE_KEYS))
        if unknown:
            raise ValidationError(
                f"serving config 'service' section has unknown key(s) "
                f"{unknown}; accepted keys: "
                f"{sorted(cls._CONFIG_SERVICE_KEYS)}")
        kwargs: Dict[str, object] = {"clock": clock}
        for key, value in service.items():
            _check_config_value(key, value)
            if key == "window_ms":
                kwargs["window_seconds"] = float(value) / 1000.0
            else:
                kwargs[key] = value
        query = config.get("query")
        default_spec = None
        if query is not None:
            if not isinstance(query, dict):
                raise ValidationError(
                    "serving config key 'query' must be an object, got "
                    f"{type(query).__name__}")
            accepted = sorted(QuerySpec.__dataclass_fields__)
            unknown = sorted(set(query) - set(accepted))
            if unknown:
                raise ValidationError(
                    f"serving config 'query' section has unknown key(s) "
                    f"{unknown}; accepted keys: {accepted}")
            # QuerySpec.__post_init__ names the offending field and the
            # accepted values in its own errors.
            default_spec = QuerySpec(**query)
        meta = config.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ValidationError(
                "serving config key 'meta' must be an object, got "
                f"{type(meta).__name__}")
        instance = cls(**kwargs)
        instance.default_spec = default_spec
        return instance

    # ------------------------------------------------------------------ #
    # graph registry and snapshots
    # ------------------------------------------------------------------ #
    def register_graph(self, name: str, graph: Graph) -> GraphSnapshot:
        """Register ``graph`` under ``name`` at version 0."""
        snapshot = GraphSnapshot(name=name, version=0, graph=graph)
        with self._lock:
            if name in self._graphs:
                raise ValidationError(f"graph {name!r} is already registered")
            self._graphs[name] = _GraphEntry(snapshot)
        self._m_snapshot_version.set(0, graph=name)
        return snapshot

    def unregister_graph(self, name: str) -> None:
        """Drop a graph, its views and cached results."""
        with self._lock:
            if self._graphs.pop(name, None) is None:
                raise ValidationError(f"unknown graph {name!r}")

    def snapshot(self, name: str) -> GraphSnapshot:
        """The current immutable snapshot of a registered graph."""
        return self._entry(name).snapshot

    def snapshot_history(self, name: str) -> Tuple[GraphSnapshot, ...]:
        """Retained snapshots of a graph, oldest first, current last.

        At most ``snapshot_history + 1`` entries; the versions a
        staleness-bounded query may be served from.
        """
        return self._entry(name).history

    def _install_snapshot(self, entry: "_GraphEntry",
                          snapshot: GraphSnapshot) -> None:
        """Make ``snapshot`` current and append it to the history window.

        Called under the entry's mutation lock.  Both attributes are
        replaced wholesale (the history is a fresh tuple), so lock-free
        readers always observe a consistent value.
        """
        entry.snapshot = snapshot
        entry.history = \
            (entry.history + (snapshot,))[-(self._snapshot_history + 1):]

    def graph_names(self) -> List[str]:
        """Names of all registered graphs (sorted)."""
        with self._lock:
            return sorted(self._graphs)

    def _entry(self, name: str) -> _GraphEntry:
        with self._lock:
            entry = self._graphs.get(name)
            if entry is None:
                raise ValidationError(f"unknown graph {name!r}")
            return entry

    # ------------------------------------------------------------------ #
    # coalesced one-shot queries
    # ------------------------------------------------------------------ #
    def _resolve_spec(self, spec: Optional[QuerySpec]) -> QuerySpec:
        """``spec``, or the service's default spec when it is ``None``."""
        if spec is None:
            return self.default_spec if self.default_spec is not None \
                else QuerySpec()
        if not isinstance(spec, QuerySpec):
            raise ValidationError(
                f"spec must be a QuerySpec, got {type(spec).__name__}")
        return spec

    def _lookup_stale(self, entry: "_GraphEntry", snapshot: GraphSnapshot,
                      max_staleness: int, params: Tuple, coupling_id,
                      digest) -> Optional[PropagationResult]:
        """Probe the result cache across the admissible version window.

        Newest-first over the retained history, stopping at
        ``snapshot.version - max_staleness``.  A hit on an older version
        is exactly the staleness contract: the caller preferred an
        already-computed answer within its bound over waiting for a cold
        solve against the freshest snapshot.
        """
        floor = snapshot.version - max_staleness
        for old in reversed(entry.history):
            if old.version > snapshot.version:
                continue  # an update raced us; stay within the bound
            if old.version < floor:
                break
            cached = self.results.lookup(
                old.graph, (old.version, params, coupling_id, digest))
            if cached is not None:
                if old.version != snapshot.version:
                    self._m_stale_hits.inc(graph=snapshot.name)
                return cached
        return None

    def query(self, graph_name: str, coupling: CouplingMatrix,
              explicit_residuals: np.ndarray,
              spec: Optional[QuerySpec] = None, *,
              max_staleness: int = 0) -> PropagationResult:
        """Run one propagation query, coalescing with concurrent peers.

        Semantically identical to calling :func:`repro.core.linbp.linbp`
        (or ``linbp_star`` / :func:`repro.core.sbp.sbp`) on the graph's
        current snapshot; concurrently submitted queries that share the
        snapshot, coupling values and the spec's
        :meth:`~repro.service.spec.QuerySpec.solver_params` are
        dispatched as one stacked batch.  Results may be served from the
        TTL+LRU cache when an identical request (same snapshot version,
        same explicit bytes) was answered recently; cached results are
        shared — treat them as read-only.

        ``spec`` is the single parameter object describing the solve
        (method, iteration budget, dtype, precision — see
        :class:`~repro.service.spec.QuerySpec`); ``None`` means the
        default spec.  Explicit beliefs must be finite: a NaN or
        ±Infinity cell raises :class:`ValidationError` before any cache
        probe or batch.

        ``max_staleness`` bounds how old an answer may be: ``s > 0``
        lets the query be served from the cache of any retained snapshot
        whose version is within ``s`` of current — so reads tolerant of
        slightly-stale data keep hitting warm results while a mutation's
        cold new version is still being computed against.  ``0``
        (default) only ever serves the current version.
        """
        spec = self._resolve_spec(spec)
        max_staleness = int(max_staleness)
        if max_staleness < 0:
            raise ValidationError("max_staleness must be >= 0")
        family, echo = spec.family, spec.echo
        precision = spec.precision
        dtype = spec.numpy_dtype
        tolerance = spec.tolerance
        max_iterations = spec.max_iterations
        num_iterations = spec.num_iterations
        entry = self._entry(graph_name)
        snapshot = entry.snapshot
        explicit = np.ascontiguousarray(explicit_residuals, dtype=np.float64)
        expected = (snapshot.graph.num_nodes, coupling.num_classes)
        if explicit.shape != expected:
            raise ValidationError(
                f"explicit beliefs must have shape {expected}, "
                f"got {explicit.shape}")
        _require_finite(explicit)
        self._m_queries.inc(graph=graph_name)
        params = spec.solver_params()
        coupling_id = engine_plan.coupling_key(coupling)
        digest = hashlib.sha1(explicit.tobytes()).digest()
        result_key = (snapshot.version, params, coupling_id, digest)
        with span("service.result_cache_lookup", graph=graph_name,
                  stale_window=max_staleness) as probe:
            if max_staleness:
                cached = self._lookup_stale(entry, snapshot, max_staleness,
                                            params, coupling_id, digest)
            else:
                cached = self.results.lookup(snapshot.graph, result_key)
            probe.set_tag("outcome", "hit" if cached is not None else "miss")
        RESULT_CACHE_LOOKUPS.inc(
            outcome="hit" if cached is not None else "miss")
        if cached is not None:
            return cached
        if family == "sbp":
            labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
            batch_key = (id(snapshot.graph), snapshot.version, params,
                         coupling_id, labeled.tobytes())

            def dispatch(items: List[object]) -> Sequence[PropagationResult]:
                explicits = [item[0] for item in items]
                if precision == "auto":
                    results, _ = engine_precision.run_sbp_batch_auto(
                        snapshot.graph, coupling, explicits,
                        tolerance=tolerance)
                    return results
                return engine_sbp.run_sbp_batch(
                    snapshot.graph, coupling, explicits, dtype=dtype)
        else:
            batch_key = (id(snapshot.graph), snapshot.version, params,
                         coupling_id)

            def dispatch(items: List[object]) -> Sequence[PropagationResult]:
                explicits = [item[0] for item in items]
                if precision == "auto":
                    results, _ = engine_precision.run_batch_auto(
                        snapshot.graph, coupling, explicits,
                        echo_cancellation=echo,
                        max_iterations=max_iterations, tolerance=tolerance,
                        num_iterations=num_iterations)
                    return results
                plan = engine_plan.get_plan(snapshot.graph, coupling,
                                            echo_cancellation=echo,
                                            dtype=dtype)
                return engine_batch.run_batch(
                    plan, explicits,
                    max_iterations=max_iterations, tolerance=tolerance,
                    num_iterations=num_iterations)

        def dispatch_and_cache(items: List[object]
                               ) -> Sequence[PropagationResult]:
            with span("service.dispatch", graph=graph_name, family=family,
                      batch=len(items)):
                results = dispatch(items)
            for (_, key), result in zip(items, results):
                result.extra.setdefault("snapshot_version", snapshot.version)
                self.results.store(snapshot.graph, key, result)
            return results

        return self.batcher.submit(batch_key, (explicit, result_key),
                                   dispatch_and_cache)

    # ------------------------------------------------------------------ #
    # maintained views
    # ------------------------------------------------------------------ #
    def create_view(self, graph_name: str, view_name: str,
                    coupling: CouplingMatrix, explicit_residuals: np.ndarray,
                    method: str = "sbp", max_iterations: int = 200,
                    tolerance: float = 1e-10) -> PropagationResult:
        """Create a named maintained view and compute its initial result.

        The view is kept current by :meth:`update`: label changes ride
        the ΔSBP repair (``method="sbp"``) or the superposition solve
        (LinBP family); edge insertions ride the Algorithm 4 repair or a
        warm-started iteration.  Views pin their *own* graph lineage —
        they evolve with the updates applied through this service, in
        lock step with the snapshot version.  Non-finite explicit beliefs
        raise :class:`ValidationError` before the view is created.
        """
        _require_finite(explicit_residuals)
        if method not in _METHODS:
            raise ValidationError(
                f"unknown method {method!r}; expected one of "
                f"{sorted(_METHODS)}")
        family, echo = _METHODS[method]
        entry = self._entry(graph_name)
        with entry.lock:
            if view_name in entry.views:
                raise ValidationError(
                    f"view {view_name!r} already exists on graph "
                    f"{graph_name!r}")
            graph = entry.snapshot.graph
            if family == "sbp":
                runner = SBP(graph, coupling)
            else:
                runner = IncrementalLinBP(
                    graph, coupling, echo_cancellation=echo,
                    max_iterations=max_iterations, tolerance=tolerance)
            view = _MaintainedView(view_name, method, runner)
            view.last_result = runner.run(explicit_residuals)
            entry.views[view_name] = view
            return view.last_result

    def view_result(self, graph_name: str, view_name: str) -> PropagationResult:
        """The most recent result of a maintained view."""
        entry = self._entry(graph_name)
        with entry.lock:
            view = entry.views.get(view_name)
            if view is None:
                raise ValidationError(
                    f"unknown view {view_name!r} on graph {graph_name!r}")
            return view.last_result

    def view_names(self, graph_name: str) -> List[str]:
        """Names of the maintained views of one graph (sorted)."""
        entry = self._entry(graph_name)
        with entry.lock:
            return sorted(entry.views)

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def update(self, graph_name: str,
               new_beliefs: Optional[Union[Dict[int, np.ndarray],
                                           np.ndarray]] = None,
               new_edges: Optional[Sequence[Union[Tuple[int, int],
                                                  Tuple[int, int, float],
                                                  Edge]]] = None
               ) -> GraphSnapshot:
        """Apply a mutation and install a new snapshot (version + 1).

        ``new_edges`` produces a successor graph via
        :meth:`Graph.with_edges_added`; ``new_beliefs`` updates the base
        explicit beliefs of every maintained view.  Either way each view
        is repaired through its incremental path — ΔSBP Algorithms 3/4
        for SBP views, superposition / warm restart for LinBP views —
        and the snapshot version is bumped, so queries submitted after
        this call see the new state while in-flight queries finish on
        the snapshot they pinned.

        Both inputs are validated *before* any view is touched (the
        successor graph is built first, so malformed edges raise before
        any repair runs, and belief shapes are checked against every
        view up front) — a rejected update leaves the service exactly as
        it was.  Non-finite ``new_beliefs`` are rejected the same way.
        """
        if new_beliefs is None and new_edges is None:
            raise ValidationError(
                "update() needs new_beliefs and/or new_edges")
        if new_beliefs is not None:
            _require_finite(new_beliefs)
        entry = self._entry(graph_name)
        with entry.lock:
            old = entry.snapshot
            graph = old.graph
            edges = None
            if new_edges is not None:
                edges = list(new_edges)
                if not edges:
                    raise ValidationError("new_edges must not be empty")
                # Building the successor graph validates every edge
                # (ids, weights, self-loops) before any view mutates.
                graph = graph.with_edges_added(edges)
            if new_beliefs is not None:
                for view in entry.views.values():
                    self._check_belief_update(old.graph, view, new_beliefs)
            if edges is not None:
                # Every view repairs against the one successor graph built
                # above: the snapshot and all maintained runners share a
                # single Graph object, so the engine's id()-keyed plan
                # caches serve view repairs and one-shot queries alike.
                for view in entry.views.values():
                    view.last_result = view.runner.add_edges(
                        edges, updated_graph=graph)
            if new_beliefs is not None:
                for view in entry.views.values():
                    view.last_result = \
                        view.runner.add_explicit_beliefs(new_beliefs)
            snapshot = GraphSnapshot(name=graph_name,
                                     version=old.version + 1, graph=graph)
            self._install_snapshot(entry, snapshot)
            self._m_updates.inc(graph=graph_name)
            self._m_snapshot_version.set(snapshot.version, graph=graph_name)
        return snapshot

    @staticmethod
    def _check_belief_update(graph: Graph, view: _MaintainedView,
                             new_beliefs: Union[Dict[int, np.ndarray],
                                                np.ndarray]) -> None:
        """Reject a belief update that any view's runner would refuse.

        Runs the same shape/range checks as the runners' own
        ``add_explicit_beliefs`` validation, but against *every* view
        before *any* of them mutates — so a malformed update cannot be
        half-applied across views (or land after the edge repairs).
        """
        num_classes = view.runner.coupling.num_classes
        if isinstance(new_beliefs, Mapping):
            for node, vector in new_beliefs.items():
                index = int(node)
                if index < 0 or index >= graph.num_nodes:
                    raise ValidationError(
                        f"node {node} out of range [0, {graph.num_nodes})")
                if np.asarray(vector, dtype=float).shape != (num_classes,):
                    raise ValidationError(
                        f"belief vector for node {node} must have "
                        f"length {num_classes}")
            return
        matrix = np.asarray(new_beliefs, dtype=float)
        expected = (graph.num_nodes, num_classes)
        if matrix.shape != expected:
            raise ValidationError(
                f"expected a {expected[0]} x {expected[1]} matrix of "
                f"new beliefs for view {view.name!r}")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Service counters: traffic, coalescing, caches, graph versions.

        The scalar counters are read off the service's always-on metrics
        registry (:attr:`registry`) — the same series the ``metrics``
        wire op and :func:`repro.obs.render_prometheus` export — summed
        across their per-graph label series and returned as the exact
        historical ints, so the dict shape predates the telemetry layer
        unchanged.
        """
        with self._lock:
            entries = dict(self._graphs)
        queries = int(self._m_queries.value())
        updates = int(self._m_updates.value())
        stale_hits = int(self._m_stale_hits.value())
        versions = {}
        views = {}
        for name, entry in entries.items():
            versions[name] = entry.snapshot.version
            # View dicts mutate under the per-graph lock (create_view), so
            # read them under the same lock to keep iteration safe.
            with entry.lock:
                if entry.views:
                    views[name] = {
                        view_name: {"method": view.method,
                                    "nodes_updated_total":
                                        view.nodes_updated_total}
                        for view_name, view in entry.views.items()}
        return {
            "queries": queries,
            "updates": updates,
            "stale_hits": stale_hits,
            "graphs": versions,
            "views": views,
            "coalescer": dict(self.batcher.stats),
            "result_cache": {"size": len(self.results),
                             **self.results.stats},
            "plan_cache": engine_plan.plan_cache_info(),
        }
