"""Line protocol of ``repro serve``: JSON requests, versioned responses.

One request per line, encoded as a JSON object with an ``"op"`` field;
one response per line.  The response *shape* is versioned by the request:

* **v0** (no ``"v"`` field) — plain text starting with ``ok`` or
  ``error``, byte-compatible with every release before the protocol was
  versioned.  Numeric payloads (belief rows) are truncated to ``%.6g``
  for human eyes.
* **v1** (``"v": 1`` in the request) — one JSON object per line:
  ``{"ok": true, "v": 1, "op": ..., ...}`` on success,
  ``{"ok": false, "v": 1, "error": {"code": ..., "message": ...}}`` on
  failure.  Error codes are a stable machine-readable taxonomy mapped
  from the :class:`~repro.exceptions.ReproError` hierarchy (see
  :func:`error_code`); belief values round-trip exact float64 (no
  ``%.6g`` truncation), so ``limit: 0, "return_beliefs": true`` is a
  lossless export.

A request that cannot be parsed at all (malformed JSON) is answered in
v0 text — its version field is unreadable by definition.

The protocol is transport-agnostic: the stdin loop
(:mod:`repro.service.server`) and the asyncio TCP server
(:mod:`repro.service.aserve`) both feed lines through one shared
:class:`ServiceSession` (so graphs loaded by one client are visible to
every other client, which is what makes cross-client coalescing
possible).

Operations::

    {"op": "load_graph", "name": "g", "edges": [[0, 1], [1, 2, 0.5]]}
    {"op": "load_coupling", "name": "h", "stochastic": [[0.8, 0.2], [0.2, 0.8]],
     "epsilon": 0.3}
    {"op": "query", "graph": "g", "coupling": "h", "method": "linbp",
     "beliefs": [[0, 0, 0.1], [2, 1, 0.1]], "staleness": 1, "v": 1}
    {"op": "view", "graph": "g", "name": "fraud", "coupling": "h",
     "method": "sbp", "beliefs": [[0, 0, 0.1]]}
    {"op": "read_view", "graph": "g", "name": "fraud"}
    {"op": "update", "graph": "g", "edges": [[2, 3]],
     "beliefs": [[3, 1, 0.1]]}
    {"op": "stats"}
    {"op": "metrics", "v": 1}
    {"op": "ping"}
    {"op": "shutdown"}

Belief lists use the relational ``E(v, c, b)`` row layout of Section 5.3:
``[node, class, value]`` triples with finite values.  Query responses
report the top label per labeled node (truncated at ``"limit"``, default
10; ``0`` means all, a negative limit is rejected); pass
``"return_beliefs": true`` for the raw residual belief rows instead.
Query requests accept every :class:`~repro.service.spec.QuerySpec`
field (``method``, ``max_iterations``, ``tolerance``,
``num_iterations``) plus ``"staleness"``, the
:meth:`~repro.service.service.PropagationService.query` staleness bound.
Every query runs in float64: a request that still carries the retired
``dtype`` or ``precision`` field is answered with a ``validation`` error
naming it.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coupling.matrices import CouplingMatrix
from repro.exceptions import (
    BackendError,
    BackendStateError,
    BackendUnavailableError,
    ConvergenceError,
    DatasetError,
    NotConvergentParametersError,
    RelationalError,
    ReproError,
    SchemaError,
    ValidationError,
)
from repro.graphs.graph import Graph
from repro.obs import iter_registries, obs_enabled, render_prometheus
from repro.service.service import PropagationService
from repro.service.spec import QuerySpec, whole_number

__all__ = ["ServiceSession", "error_code", "ERROR_CODES"]

#: Default number of per-node entries echoed by query/read_view responses.
DEFAULT_LIMIT = 10

#: The machine-readable error taxonomy of v1 responses: exception class →
#: code, most specific first (the first isinstance match wins).  Codes are
#: wire-stable: clients switch on them, so renaming one is a breaking
#: protocol change.
ERROR_CODES: Tuple[Tuple[type, str], ...] = (
    (NotConvergentParametersError, "not-convergent"),
    (ConvergenceError, "convergence"),
    (ValidationError, "validation"),
    (BackendUnavailableError, "backend-unavailable"),
    (BackendStateError, "backend-state"),
    (BackendError, "backend"),
    (SchemaError, "schema"),
    (RelationalError, "relational"),
    (DatasetError, "dataset"),
    (ReproError, "repro"),
)

#: Protocol-level codes (not mapped from exceptions): ``bad-json``,
#: ``bad-request``, ``bad-version``, ``unknown-op``, ``missing-field``,
#: ``overloaded``, ``too-large``, ``internal``.


def error_code(exception: BaseException) -> str:
    """The v1 wire code for an exception, from the ReproError taxonomy.

    Unlisted builtin value errors (``TypeError``, ``ValueError``,
    ``OverflowError`` — malformed request payloads) map to
    ``bad-value``; anything else is ``internal``.
    """
    for exc_type, code in ERROR_CODES:
        if isinstance(exception, exc_type):
            return code
    if isinstance(exception, (TypeError, OverflowError, ValueError)):
        return "bad-value"
    return "internal"


def _request_limit(request: dict) -> int:
    """The request's ``limit`` (default :data:`DEFAULT_LIMIT`; 0 = all)."""
    limit = whole_number("limit", request.get("limit", DEFAULT_LIMIT))
    if limit < 0:
        raise ValidationError(
            f"limit must be >= 0 (0 means no limit), got {limit}")
    return limit


def _emitted(nodes: np.ndarray, limit: int) -> Tuple[np.ndarray, bool]:
    """The first ``limit`` of ``nodes`` (all for 0), and whether any were
    dropped."""
    truncated = bool(limit) and nodes.size > limit
    return (nodes[:limit] if truncated else nodes), truncated


def _joined(separator: str, entries: List[str], truncated: bool) -> str:
    """v0 list text: ``-`` when empty, ``...`` last when truncated."""
    if not entries:
        return "-"
    return separator.join(entries + ["..."] if truncated else entries)


def _label_payload(result, coupling: CouplingMatrix, limit: int,
                   version: int) -> Tuple[object, bool]:
    """Top label per labeled node, for the emitted nodes only.

    v0: ``node:class`` text joined by ``,``; v1: ``[node, class_name]``
    rows.  Returns the payload and the truncation flag.  The argmax runs
    over the emitted rows only, with ``BeliefMatrix.hard_labels``' rules:
    all-zero rows get no label, ties go to the lowest class id.
    """
    beliefs = result.beliefs
    nodes, truncated = _emitted(
        np.flatnonzero(np.any(beliefs != 0.0, axis=1)), limit)
    labels = np.argmax(beliefs[nodes], axis=1)
    names = [coupling.name_of(klass) for klass in range(coupling.num_classes)]
    pairs = zip(nodes.tolist(), labels.tolist())
    if version == 0:
        return _joined(",", [f"{node}:{names[label]}"
                             for node, label in pairs], truncated), truncated
    return [[node, names[label]] for node, label in pairs], truncated


def _belief_payload(beliefs: np.ndarray, limit: int,
                    version: int) -> Tuple[object, bool]:
    """Belief rows of the emitted non-zero nodes.

    v0: ``node:v|v|v`` text with ``%.6g`` values, joined by ``;``.  v1:
    ``[node, [values...]]`` rows; ``ndarray.tolist`` yields the exact
    Python floats, so ``json.dumps`` emits shortest-round-trip literals
    and ``json.loads`` recovers bit-identical float64s, unlike the v0
    text.
    """
    nodes, truncated = _emitted(
        np.flatnonzero(np.any(beliefs != 0.0, axis=1)), limit)
    rows = zip(nodes.tolist(), beliefs[nodes].tolist())
    if version == 0:
        return _joined(";", [f"{node}:" + "|".join(f"{value:.6g}"
                                                   for value in values)
                             for node, values in rows], truncated), truncated
    return [[node, values] for node, values in rows], truncated


def _belief_row(triple, num_nodes: int,
                num_classes: int) -> Tuple[int, int, float]:
    """One checked ``[node, class, value]`` row."""
    if not isinstance(triple, (list, tuple)) or len(triple) != 3:
        raise ValidationError("beliefs must be [node, class, value] triples")
    try:
        node, klass, value = int(triple[0]), int(triple[1]), float(triple[2])
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"beliefs row {triple!r:.60} is not an integer node, an "
            "integer class and a number") from None
    if not 0 <= node < num_nodes:
        raise ValidationError(f"node {node} out of range [0, {num_nodes})")
    if not 0 <= klass < num_classes:
        raise ValidationError(
            f"class {klass} out of range [0, {num_classes})")
    if not math.isfinite(value):
        raise ValidationError(
            f"belief value {value} for node {node} class {klass} is not "
            "finite")
    return node, klass, value


def _belief_matrix(triples, num_nodes: int, num_classes: int) -> np.ndarray:
    """The explicit-belief matrix of ``[node, class, value]`` rows.

    A later row for the same cell wins.  A numeric table is checked and
    scattered in one numpy pass; its first offending row raises what
    :func:`_belief_row` raises for it.  Anything else (ragged rows,
    strings) goes through :func:`_belief_row` row by row.
    """
    if not isinstance(triples, (list, tuple)):
        raise ValidationError(
            "beliefs must be a list of [node, class, value] triples")
    matrix = np.zeros((num_nodes, num_classes))
    try:
        table = np.asarray(triples)
    except (ValueError, TypeError, OverflowError):
        table = None
    if table is None or table.ndim != 2 or table.shape[1] != 3 \
            or table.dtype.kind not in "biuf":
        for triple in triples:
            node, klass, value = _belief_row(triple, num_nodes, num_classes)
            matrix[node, klass] = value
        return matrix
    table = table.astype(float)
    nodes, classes, values = np.trunc(table[:, 0]), np.trunc(table[:, 1]), \
        table[:, 2]
    valid = (nodes >= 0) & (nodes < num_nodes) & (classes >= 0) \
        & (classes < num_classes) & np.isfinite(values)
    if not valid.all():
        # Checked alone, the first offending row raises its own message.
        _belief_row(triples[int(np.argmin(valid))], num_nodes, num_classes)
    cells = nodes.astype(np.int64) * num_classes + classes.astype(np.int64)
    # Keep each cell's last row: repeated fancy-index assignment has no
    # defined order.
    _, last = np.unique(cells[::-1], return_index=True)
    keep = cells.size - 1 - last
    matrix.ravel()[cells[keep]] = values[keep]
    return matrix


def _edge_rows(edges) -> List[tuple]:
    """A request's ``edges`` as tuples; :class:`Graph` checks the values."""
    if not isinstance(edges, list) \
            or not all(isinstance(edge, list) for edge in edges):
        raise ValidationError(
            "edges must be a list of [source, target] or "
            "[source, target, weight] rows")
    return [tuple(edge) for edge in edges]


def _real_number(name: str, value: object) -> float:
    """``value`` as a float, or :class:`ValidationError` naming ``name``."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a number, got {value!r:.60}") from None


def _number_matrix(name: str, value: object) -> np.ndarray:
    """``value`` as a float array, or :class:`ValidationError` naming it."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a matrix of numbers, got {value!r:.60}") \
            from None


def _json_safe(value):
    """Recursively coerce a stats payload into JSON-serialisable types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _format_v0(value) -> str:
    """One ``key=value`` payload in the legacy plain-text rendering."""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _render_ok(version: int, kind: str,
               fields: Sequence[Tuple[str, object]] = ()) -> str:
    """One success line in the request's protocol version.

    ``fields`` are ``(key, value)`` pairs: v0 renders them as
    ``key=value`` tokens after ``ok <kind>``, v1 as JSON object members
    after ``ok``, ``v`` and ``op``, in order.  Handlers pass each
    version only the fields it carries.  A v1 line is strict JSON: a
    non-finite float raises ``ValueError`` instead of rendering.
    """
    if version == 0:
        tokens = "".join(f" {key}={_format_v0(value)}"
                         for key, value in fields)
        return f"ok {kind}{tokens}"
    body = {"ok": True, "v": 1, "op": kind}
    body.update(fields)
    return json.dumps(body, separators=(",", ":"), allow_nan=False)


def _render_error(version: int, code: str, message: str) -> str:
    if version == 0:
        return f"error {message}"
    return json.dumps({"ok": False, "v": 1,
                       "error": {"code": code, "message": message}},
                      separators=(",", ":"), allow_nan=False)


def _require_finite_result(result) -> None:
    """Refuse to answer ``ok`` over NaN or ±Infinity beliefs.

    Finite inputs still give non-finite beliefs when the sweeps diverge
    (a coupling beyond the Lemma 8 limit) or overflow float64 (explicit
    values near its maximum); the beliefs, and any labels read off them,
    are then meaningless.
    """
    if not np.isfinite(result.beliefs).all():
        raise ConvergenceError(
            f"{result.method} produced non-finite beliefs after "
            f"{result.iterations} iterations: the sweeps diverged (see "
            "repro analyze for the coupling scale limit) or overflowed "
            "float64", iterations=int(result.iterations))


class ServiceSession:
    """Protocol state shared by every connection of one ``repro serve``.

    Holds the :class:`PropagationService` plus the named coupling
    registry (couplings are value objects, not graph state, so they live
    at the protocol layer).  All methods are thread-safe; the TCP server
    calls :meth:`handle_line` from one thread per connection, the asyncio
    front end from a worker-thread pool.
    """

    def __init__(self, service: Optional[PropagationService] = None,
                 **service_options):
        self.service = service if service is not None \
            else PropagationService(**service_options)
        self._couplings: Dict[str, CouplingMatrix] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # registries
    # ------------------------------------------------------------------ #
    def coupling(self, name: str) -> CouplingMatrix:
        with self._lock:
            coupling = self._couplings.get(name)
        if coupling is None:
            raise ValidationError(f"unknown coupling {name!r}")
        return coupling

    # ------------------------------------------------------------------ #
    # the dispatcher
    # ------------------------------------------------------------------ #
    def handle_line(self, line: str) -> Tuple[str, bool]:
        """Process one request line; return ``(response, keep_running)``."""
        line = line.strip()
        if not line:
            return _render_error(0, "bad-request", "empty request"), True
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            return _render_error(0, "bad-json",
                                 f"invalid JSON: {error.msg}"), True
        version = request.get("v", 0) if isinstance(request, dict) else 0
        if version not in (0, 1):
            return _render_error(0, "bad-version",
                                 f"unsupported protocol version "
                                 f"{version!r} (supported: 0, 1)"), True
        if not isinstance(request, dict) or "op" not in request:
            return _render_error(
                version, "bad-request",
                "request must be a JSON object with an 'op' field"), True
        op = str(request["op"])
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            return _render_error(version, "unknown-op",
                                 f"unknown op {op!r}"), True
        try:
            reply = handler(request, version)
        except KeyError as error:
            return _render_error(version, "missing-field",
                                 f"missing field {error.args[0]!r}"), True
        except (ReproError, TypeError, OverflowError, ValueError) as error:
            return _render_error(version, error_code(error), str(error)), True
        except Exception as error:
            # One response per request, whatever happens: a handler bug must
            # not kill the connection thread (TCP) or the serve loop (stdin)
            # without a reply line.
            return _render_error(
                version, "internal",
                f"internal: {type(error).__name__}: {error}"), True
        return reply, op != "shutdown"

    def overload_response(self, line: str, detail: str) -> str:
        """A 503-style rejection for a request the server will not run.

        Used by the asyncio front end's admission control: the request
        is parsed only far enough to answer in its own protocol version
        (v0 text for v0/unparseable requests, v1 JSON with code
        ``overloaded`` otherwise) — no handler executes.
        """
        version = 0
        try:
            request = json.loads(line)
            if isinstance(request, dict) and request.get("v") == 1:
                version = 1
        except (json.JSONDecodeError, TypeError):
            pass
        return _render_error(version, "overloaded", detail)

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def _op_load_graph(self, request: dict, version: int) -> str:
        name = str(request["name"])
        num_nodes = request.get("num_nodes")
        if num_nodes is not None:
            num_nodes = whole_number("num_nodes", num_nodes)
            if not 0 <= num_nodes < 2 ** 63:
                raise ValidationError(
                    "num_nodes must be a non-negative integer below 2**63")
        graph = Graph.from_edges(_edge_rows(request["edges"]),
                                 num_nodes=num_nodes)
        snapshot = self.service.register_graph(name, graph)
        return _render_ok(version, "graph", [
            ("name", name), ("nodes", graph.num_nodes),
            ("edges", graph.num_edges), ("version", snapshot.version)])

    def _op_load_coupling(self, request: dict, version: int) -> str:
        name = str(request["name"])
        epsilon = _real_number("epsilon", request.get("epsilon", 1.0))
        class_names = request.get("classes")
        if class_names is not None and not (
                isinstance(class_names, list)
                and all(isinstance(label, str) for label in class_names)):
            raise ValidationError("classes must be a list of class names")
        if "residual" in request:
            coupling = CouplingMatrix.from_residual(
                _number_matrix("residual", request["residual"]),
                epsilon=epsilon, class_names=class_names)
        elif "stochastic" in request:
            coupling = CouplingMatrix.from_stochastic(
                _number_matrix("stochastic", request["stochastic"]),
                epsilon=epsilon, class_names=class_names)
        else:
            raise ValidationError(
                "load_coupling needs a 'residual' or 'stochastic' matrix")
        with self._lock:
            self._couplings[name] = coupling
        return _render_ok(version, "coupling", [
            ("name", name), ("classes", coupling.num_classes)])

    def _op_query(self, request: dict, version: int) -> str:
        graph_name = str(request["graph"])
        coupling = self.coupling(str(request["coupling"]))
        snapshot = self.service.snapshot(graph_name)
        explicit = _belief_matrix(request["beliefs"],
                                  snapshot.graph.num_nodes,
                                  coupling.num_classes)
        limit = _request_limit(request)
        spec = QuerySpec.from_request(
            request, defaults=self.service.default_spec)
        result = self.service.query(
            graph_name, coupling, explicit, spec,
            max_staleness=whole_number("staleness",
                                       request.get("staleness", 0)))
        _require_finite_result(result)
        fields = [("method", result.method),
                  ("iterations", int(result.iterations)),
                  ("converged", bool(result.converged))]
        if request.get("return_beliefs"):
            payload, truncated = _belief_payload(result.beliefs, limit,
                                                 version)
            fields.append(("beliefs", payload))
        else:
            payload, truncated = _label_payload(result, coupling, limit,
                                                version)
            fields.append(("labels", payload))
        if version != 0:
            fields.append(("truncated", truncated))
            snapshot_version = result.extra.get("snapshot_version")
            if snapshot_version is not None:
                fields.append(("snapshot_version", int(snapshot_version)))
        return _render_ok(version, "query", fields)

    def _op_view(self, request: dict, version: int) -> str:
        graph_name = str(request["graph"])
        view_name = str(request["name"])
        coupling = self.coupling(str(request["coupling"]))
        snapshot = self.service.snapshot(graph_name)
        explicit = _belief_matrix(request["beliefs"],
                                  snapshot.graph.num_nodes,
                                  coupling.num_classes)
        result = self.service.create_view(
            graph_name, view_name, coupling, explicit,
            method=str(request.get("method", "sbp")))
        _require_finite_result(result)
        return _render_ok(version, "view", [
            ("graph", graph_name), ("name", view_name),
            ("method", result.method),
            ("iterations", int(result.iterations))])

    def _op_read_view(self, request: dict, version: int) -> str:
        graph_name = str(request["graph"])
        view_name = str(request["name"])
        limit = _request_limit(request)
        result = self.service.view_result(graph_name, view_name)
        _require_finite_result(result)
        payload, truncated = _belief_payload(result.beliefs, limit, version)
        fields = [("graph", graph_name), ("name", view_name),
                  ("beliefs", payload)]
        if version != 0:
            fields.append(("truncated", truncated))
        return _render_ok(version, "read_view", fields)

    def _op_update(self, request: dict, version: int) -> str:
        graph_name = str(request["graph"])
        edges = request.get("edges")
        beliefs = request.get("beliefs")
        new_beliefs = None
        if beliefs is not None:
            snapshot = self.service.snapshot(graph_name)
            new_beliefs = _belief_matrix(beliefs, snapshot.graph.num_nodes,
                                         self._update_classes(graph_name,
                                                              request))
        new_edges = None
        if edges is not None:
            new_edges = _edge_rows(edges)
        snapshot = self.service.update(graph_name, new_beliefs=new_beliefs,
                                       new_edges=new_edges)
        return _render_ok(version, "update", [
            ("graph", graph_name), ("version", snapshot.version)])

    def _update_classes(self, graph_name: str, request: dict) -> int:
        """Class count for an update's belief rows.

        An explicit ``"coupling"`` field wins; otherwise the graph's
        maintained views determine it (belief updates only affect views,
        so their class count is the authoritative one), falling back to
        a unanimous loaded-coupling registry.
        """
        if "coupling" in request:
            return self.coupling(str(request["coupling"])).num_classes
        classes = {self.service.view_result(graph_name, name).beliefs.shape[1]
                   for name in self.service.view_names(graph_name)}
        if len(classes) != 1:
            with self._lock:
                classes = {coupling.num_classes
                           for coupling in self._couplings.values()}
        if len(classes) != 1:
            raise ValidationError(
                "update with beliefs needs a 'coupling' field to "
                "determine the class count")
        return classes.pop()

    def _op_stats(self, request: dict, version: int) -> str:
        stats = self.service.stats()
        if version != 0:
            return _render_ok(version, "stats",
                              [("stats", _json_safe(stats))])
        coalescer = stats["coalescer"]
        cache = stats["result_cache"]
        return (f"ok stats queries={stats['queries']} "
                f"updates={stats['updates']} "
                f"batches={coalescer['batches']} "
                f"coalesced_requests={coalescer['coalesced_requests']} "
                f"largest_batch={coalescer['largest_batch']} "
                f"cache_hits={cache['hits']} "
                f"cache_size={cache['size']}")

    def _op_metrics(self, request: dict, version: int) -> str:
        """Telemetry dump: default registry merged with the service's own.

        The v1 payload carries the full structured snapshot (per-series
        labels, histogram buckets); ``"format": "prometheus"`` adds the
        text exposition under ``"prometheus"``.  The v0 rendering is a
        one-line summary — scrape the ``--metrics-port`` endpoint or use
        v1 for actual values.
        """
        registries = list(iter_registries(self.service.registry))
        merged: Dict[str, dict] = {}
        for registry in registries:
            for name, entry in registry.snapshot().items():
                merged.setdefault(name, entry)
        series = sum(len(entry["series"]) for entry in merged.values())
        fields = [("names", len(merged)), ("series", series),
                  ("enabled", obs_enabled())]
        if version != 0:
            fields.append(("metrics", _json_safe(merged)))
            if str(request.get("format", "")) == "prometheus":
                fields.append(("prometheus", render_prometheus(registries)))
        return _render_ok(version, "metrics", fields)

    def _op_ping(self, request: dict, version: int) -> str:
        return "ok pong" if version == 0 else _render_ok(version, "ping")

    def _op_shutdown(self, request: dict, version: int) -> str:
        """Stop the serve loop (``handle_line`` reports keep_running=False)."""
        return "ok bye" if version == 0 else _render_ok(version, "shutdown")
