"""The ablation runner: execute candidate configs, read metrics off obs.

One *run* = one candidate configuration executed against a fixed,
seeded workload on a **fresh** :class:`~repro.service.service
.PropagationService` built through
:meth:`~repro.service.service.PropagationService.from_config` — the
exact consumption path of a tuned artifact, so the tuner can never
measure a configuration the serving layer would not accept.

Measurement discipline (the part that makes reports trustworthy):

* **Metrics come off the registries, not ad-hoc counters.**  Latency
  percentiles and throughput are read from the harness's
  :class:`~repro.service.harness.HarnessRun`; request/cache/sweep
  accounting is read off :mod:`repro.obs` — the service's own
  always-on registry (fresh per run, because the service is) and a
  before/after *delta* of the process-global registry for the
  engine-level series (``repro_engine_sweeps_total``,
  ``repro_service_result_cache_lookups_total``, the coalescer
  counters).  The runner temporarily enables global telemetry around
  the measured drive and restores the caller's setting afterwards.
* **Fairness.**  Every run clears the engine's plan caches and drives
  the workload once un-measured (plan builds, thread pools) before the
  measured drive, so the first candidate is not taxed for warming what
  later candidates inherit.
* **Crash isolation.**  A configuration that raises mid-run is recorded
  as a ``failed`` :class:`RunRecord` carrying the error text; the sweep
  continues.  A configuration that exceeds ``run_timeout_seconds`` is
  recorded as ``timeout`` (its daemon worker thread is abandoned — the
  price of not letting one pathological config sink a whole sweep).
* **Stable run IDs.**  Every record is keyed by
  :func:`repro.tune.space.config_id` — content-addressed, so re-running
  the same sweep yields the same IDs and completed measurements are
  memoised within a runner (coordinate descent revisits neighbours).

Workloads are built once and reused across every candidate:
:func:`make_mixed_workload` produces the closed-loop mixed update/query
shape (the serving scenario the knobs exist for), and
:func:`make_engine_workload` a pure :func:`repro.engine.batch.run_batch`
drive for engine-only sweeps of the tolerance.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.tune.space import (
    SERVICE_KEYS,
    ConfigSpace,
    config_id,
    service_config_space,
)

__all__ = [
    "Workload",
    "RunMetrics",
    "RunRecord",
    "AblationRunner",
    "make_mixed_workload",
    "make_engine_workload",
    "measure_config",
]

#: Counter names whose process-global delta a run reports.  These are
#: the obs catalog series the engine/service layers already maintain —
#: the runner never counts anything itself.
_GLOBAL_COUNTERS = (
    "repro_engine_sweeps_total",
    "repro_plan_builds_total",
    "repro_plan_cache_hits_total",
    "repro_service_result_cache_lookups_total",
    "repro_coalescer_batches_total",
    "repro_coalescer_coalesced_requests_total",
)


@dataclass(frozen=True)
class Workload:
    """One reusable, seeded traffic shape driven at every candidate.

    ``kind`` is ``"mixed"`` (closed-loop update/query traffic through a
    full service — the default) or ``"engine"`` (repeated
    ``run_batch`` calls, for sweeps of the tolerance alone).
    ``requests`` carry *payloads*, not specs: the runner injects each
    candidate's :class:`~repro.service.spec.QuerySpec` at execution
    time, so one workload serves every configuration.
    """

    kind: str
    graph: object
    coupling: object
    requests: Tuple[Dict, ...] = ()
    explicits: Tuple[np.ndarray, ...] = ()
    num_clients: int = 8
    max_iterations: int = 50
    engine_rounds: int = 5
    graph_name: str = "g"
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("mixed", "engine"):
            raise ValidationError(
                f"unknown workload kind {self.kind!r} "
                "(expected 'mixed' or 'engine')")
        if self.kind == "mixed" and not self.requests:
            raise ValidationError("a mixed workload needs requests")
        if self.kind == "engine" and not self.explicits:
            raise ValidationError("an engine workload needs explicits")


@dataclass(frozen=True)
class RunMetrics:
    """What one measured run produced, all read off existing substrates."""

    requests: int
    queries: int
    updates: int
    elapsed_seconds: float
    throughput_rps: float
    p50_seconds: float
    p99_seconds: float
    query_p99_seconds: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    sweeps: int
    plan_builds: int
    stale_hits: int
    coalesced_batches: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "queries": self.queries,
            "updates": self.updates,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "query_p99_seconds": self.query_p99_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "sweeps": self.sweeps,
            "plan_builds": self.plan_builds,
            "stale_hits": self.stale_hits,
            "coalesced_batches": self.coalesced_batches,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        return cls(**{name: data[name] for name in cls.__dataclass_fields__})


@dataclass(frozen=True)
class RunRecord:
    """One candidate's outcome: its stable ID, status, and metrics.

    ``status`` is ``"ok"`` (measured), ``"skipped"`` (the configuration
    is not in the space — ``error`` holds the reasons), ``"failed"``
    (the run raised — ``error`` holds the exception) or ``"timeout"``.
    """

    run_id: str
    config: Dict[str, object]
    status: str
    metrics: Optional[RunMetrics] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "config": dict(self.config),
            "status": self.status,
            "metrics": self.metrics.as_dict() if self.metrics else None,
            "error": self.error,
        }


# ---------------------------------------------------------------------- #
# workload construction
# ---------------------------------------------------------------------- #
def make_mixed_workload(graph, coupling, *, seed: int = 0,
                        num_clients: int = 8,
                        requests_per_client: int = 6,
                        update_every: int = 8,
                        edges_per_update: int = 3,
                        explicit_nodes: int = 12,
                        max_iterations: int = 50,
                        graph_name: str = "g",
                        description: str = "") -> Workload:
    """A seeded closed-loop mixed update/query workload over ``graph``.

    Every ``update_every``-th request is an edge-delta update (disjoint
    edges absent from the base graph, applied in request order by the
    harness's dealing); the rest are queries over a small pool of
    explicit-belief matrices, a third of them tolerating one version of
    staleness.  The whole shape is a pure function of ``(graph, seed)``
    — two workloads built with the same arguments are identical, which
    is what makes run IDs and sweep results reproducible.
    """
    rng = np.random.default_rng(seed)
    num_classes = coupling.num_classes
    total = num_clients * requests_per_client
    num_updates = max(1, total // max(update_every, 2))

    adjacency = graph.adjacency
    chosen = set()
    deltas: List[List[Tuple[int, int]]] = []
    for _ in range(num_updates):
        delta: List[Tuple[int, int]] = []
        attempts = 0
        while len(delta) < edges_per_update and attempts < 10_000:
            attempts += 1
            u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
            if u == v or (u, v) in chosen or (v, u) in chosen:
                continue
            if adjacency[u, v] != 0:
                continue
            chosen.add((u, v))
            delta.append((u, v))
        if delta:
            deltas.append(delta)

    base = np.zeros((graph.num_nodes, num_classes))
    nodes = rng.choice(graph.num_nodes,
                       size=min(explicit_nodes, graph.num_nodes),
                       replace=False)
    for node in nodes:
        values = rng.uniform(-0.1, 0.1, size=num_classes - 1)
        base[node] = list(values) + [-values.sum()]

    requests: List[Dict] = []
    update_index = 0
    for i in range(total):
        if i % update_every == 0 and update_index < len(deltas):
            requests.append({"op": "update",
                             "new_edges": list(deltas[update_index])})
            update_index += 1
        else:
            requests.append({
                "op": "query",
                "explicit": base * rng.uniform(0.5, 1.5),
                "max_staleness": 1 if i % 3 else 0,
            })
    return Workload(kind="mixed", graph=graph, coupling=coupling,
                    requests=tuple(requests), num_clients=num_clients,
                    max_iterations=max_iterations, graph_name=graph_name,
                    description=description or
                    f"mixed {total} requests ({update_index} updates), "
                    f"{num_clients} clients, seed {seed}")


def make_engine_workload(graph, coupling, *, seed: int = 0,
                         batch_width: int = 8, rounds: int = 5,
                         explicit_nodes: int = 12,
                         max_iterations: int = 50,
                         graph_name: str = "g",
                         description: str = "") -> Workload:
    """A pure ``run_batch`` workload for engine-only sweeps.

    Only the tolerance matters here; the service-layer keys of a
    candidate are accepted and ignored.
    """
    rng = np.random.default_rng(seed)
    num_classes = coupling.num_classes
    explicits = []
    for _ in range(batch_width):
        explicit = np.zeros((graph.num_nodes, num_classes))
        nodes = rng.choice(graph.num_nodes,
                           size=min(explicit_nodes, graph.num_nodes),
                           replace=False)
        for node in nodes:
            values = rng.uniform(-0.1, 0.1, size=num_classes - 1)
            explicit[node] = list(values) + [-values.sum()]
        explicits.append(explicit)
    return Workload(kind="engine", graph=graph, coupling=coupling,
                    explicits=tuple(explicits), engine_rounds=rounds,
                    max_iterations=max_iterations, graph_name=graph_name,
                    description=description or
                    f"engine batch of {batch_width}, {rounds} rounds, "
                    f"seed {seed}")


# ---------------------------------------------------------------------- #
# registry reading
# ---------------------------------------------------------------------- #
def _counter_totals(registry) -> Dict[Tuple[str, Tuple], float]:
    """Per-(name, label-set) totals of every tracked global counter."""
    totals: Dict[Tuple[str, Tuple], float] = {}
    for name in _GLOBAL_COUNTERS:
        metric = registry.get(name)
        if metric is None or metric.kind != "counter":
            continue
        for labels, value in metric.labeled_values():
            key = (name, tuple(sorted(labels.items())))
            totals[key] = float(value)
    return totals


def _counter_delta(before: Dict, after: Dict, name: str,
                   **labels: str) -> float:
    """Summed before→after growth of one counter, filtered by labels."""
    wanted = set(labels.items())
    total = 0.0
    for (metric_name, label_items), value in after.items():
        if metric_name != name or not wanted.issubset(set(label_items)):
            continue
        total += value - before.get((metric_name, label_items), 0.0)
    return total


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #
def _service_artifact(config: Dict[str, object]) -> Dict[str, object]:
    """The from_config artifact for one candidate."""
    service = {key: config[key] for key in SERVICE_KEYS if key in config}
    return {"version": 1, "service": service}


def _query_spec(workload: Workload, config: Dict[str, object]):
    from repro.service.spec import QuerySpec

    return QuerySpec(
        method="linbp",
        max_iterations=workload.max_iterations,
        tolerance=config.get("tolerance", 1e-10))


def _drive_mixed(workload: Workload, config: Dict[str, object]):
    """One full service lifecycle: build, register, drive."""
    from repro.service import PropagationService, ServiceHarness

    spec = _query_spec(workload, config)
    requests = []
    for payload in workload.requests:
        if payload["op"] == "update":
            requests.append({"op": "update",
                             "graph_name": workload.graph_name,
                             "new_edges": payload["new_edges"]})
        else:
            requests.append({"op": "query",
                             "graph_name": workload.graph_name,
                             "coupling": workload.coupling,
                             "explicit_residuals": payload["explicit"],
                             "spec": spec,
                             "max_staleness": payload["max_staleness"]})
    service = PropagationService.from_config(_service_artifact(config))
    service.register_graph(workload.graph_name, workload.graph)
    harness = ServiceHarness(service)
    run = harness.run_mixed(requests, num_clients=workload.num_clients)
    return service, run


def _drive_engine(workload: Workload, config: Dict[str, object]):
    """Engine-only drive: ``engine_rounds`` timed stacked batch calls."""
    from repro.engine import batch as engine_batch
    from repro.engine import plan as engine_plan
    from repro.service.harness import HarnessRun

    tolerance = float(config.get("tolerance", 1e-10))
    explicits = list(workload.explicits)
    latencies: List[float] = []
    start = time.perf_counter()
    for _ in range(workload.engine_rounds):
        issued = time.perf_counter()
        plan = engine_plan.get_plan(workload.graph, workload.coupling)
        engine_batch.run_batch(plan, explicits,
                               max_iterations=workload.max_iterations,
                               tolerance=tolerance)
        latencies.append(time.perf_counter() - issued)
    elapsed = time.perf_counter() - start
    return HarnessRun(results=[None] * len(latencies),
                      elapsed_seconds=elapsed, latencies=latencies)


def measure_config(workload: Workload,
                   config: Dict[str, object]) -> RunMetrics:
    """Measure one candidate configuration against ``workload``.

    Clears the engine plan caches, drives the workload once un-measured
    (warm-up), snapshots the global registry, drives it again measured,
    and assembles :class:`RunMetrics` from the harness run plus the
    registry deltas.  Global telemetry is enabled for the duration and
    the caller's setting restored after.
    """
    from repro.engine import clear_plan_cache
    from repro.obs import REGISTRY, obs_enabled, set_obs_enabled

    previous = obs_enabled()
    set_obs_enabled(True)
    try:
        clear_plan_cache()
        if workload.kind == "engine":
            _drive_engine(workload, config)  # warm-up: plans, buffers
            before = _counter_totals(REGISTRY)
            run = _drive_engine(workload, config)
            service = None
        else:
            _drive_mixed(workload, config)  # warm-up: plans, pools
            before = _counter_totals(REGISTRY)
            service, run = _drive_mixed(workload, config)
        after = _counter_totals(REGISTRY)
    finally:
        set_obs_enabled(previous)

    if service is not None:
        queries = int(service.registry.counter(
            "repro_service_queries_total").value())
        updates = int(service.registry.counter(
            "repro_service_updates_total").value())
        stale_hits = int(service.registry.counter(
            "repro_service_stale_hits_total").value())
        query_latencies = [
            latency for payload, latency in zip(workload.requests,
                                                run.latencies)
            if payload["op"] == "query"]
    else:
        queries = len(run.latencies)
        updates = 0
        stale_hits = 0
        query_latencies = list(run.latencies)

    hits = _counter_delta(before, after,
                          "repro_service_result_cache_lookups_total",
                          outcome="hit")
    misses = _counter_delta(before, after,
                            "repro_service_result_cache_lookups_total",
                            outcome="miss")
    lookups = hits + misses
    ordered = sorted(query_latencies)
    query_p99 = ordered[max(0, int(np.ceil(0.99 * len(ordered))) - 1)] \
        if ordered else 0.0
    return RunMetrics(
        requests=len(run.latencies),
        queries=queries,
        updates=updates,
        elapsed_seconds=run.elapsed_seconds,
        throughput_rps=run.throughput,
        p50_seconds=run.percentile(50),
        p99_seconds=run.p99,
        query_p99_seconds=query_p99,
        cache_hits=int(hits),
        cache_misses=int(misses),
        cache_hit_rate=(hits / lookups) if lookups else 0.0,
        sweeps=int(_counter_delta(before, after,
                                  "repro_engine_sweeps_total")),
        plan_builds=int(_counter_delta(before, after,
                                       "repro_plan_builds_total")),
        stale_hits=stale_hits,
        coalesced_batches=int(_counter_delta(
            before, after, "repro_coalescer_batches_total")),
    )


# ---------------------------------------------------------------------- #
# the runner
# ---------------------------------------------------------------------- #
class AblationRunner:
    """Run candidate configurations with isolation, timeouts, memoisation.

    Parameters
    ----------
    workload:
        The fixed traffic shape every candidate is measured against.
    space:
        The :class:`~repro.tune.space.ConfigSpace` (default: the
        serving space).
    run_timeout_seconds:
        Wall-clock budget per measured run; a run that exceeds it is
        recorded as ``timeout`` and its worker thread abandoned.
    measure:
        The measurement function ``(workload, config) -> RunMetrics``.
        Injectable so determinism tests can replace wall-clock timing
        with a pure function of the configuration; defaults to
        :func:`measure_config`.
    progress:
        Optional callback invoked with every finished
        :class:`RunRecord` (CLI progress lines).
    """

    def __init__(self, workload: Workload, *,
                 space: Optional[ConfigSpace] = None,
                 run_timeout_seconds: float = 120.0,
                 measure: Optional[Callable[[Workload, Dict], RunMetrics]]
                 = None,
                 progress: Optional[Callable[[RunRecord], None]] = None):
        if run_timeout_seconds <= 0:
            raise ValidationError("run_timeout_seconds must be > 0")
        self.workload = workload
        self.space = space if space is not None else service_config_space()
        self.run_timeout_seconds = float(run_timeout_seconds)
        self.measure = measure if measure is not None else measure_config
        self.progress = progress
        #: Completed records by run ID — coordinate descent revisits
        #: one-factor neighbours, and re-measuring an identical config
        #: would only add noise.
        self.records: Dict[str, RunRecord] = {}

    # ------------------------------------------------------------------ #
    def run_config(self, config: Dict[str, object]) -> RunRecord:
        """Measure one configuration (memoised, isolated, time-bounded)."""
        run_id = config_id(config)
        cached = self.records.get(run_id)
        if cached is not None:
            return cached
        reasons = self.space.validate(config)
        if reasons:
            record = RunRecord(run_id=run_id, config=dict(config),
                               status="skipped", error="; ".join(reasons))
            return self._finish(record)

        outcome: List[object] = []

        def worker() -> None:
            try:
                outcome.append(self.measure(self.workload, config))
            except BaseException:  # recorded, never propagated
                outcome.append(traceback.format_exc(limit=20))

        thread = threading.Thread(target=worker, daemon=True,
                                  name=f"tune-{run_id}")
        thread.start()
        thread.join(self.run_timeout_seconds)
        if thread.is_alive():
            record = RunRecord(
                run_id=run_id, config=dict(config), status="timeout",
                error=f"run exceeded {self.run_timeout_seconds:.0f}s "
                      "(worker thread abandoned)")
        elif outcome and isinstance(outcome[0], RunMetrics):
            record = RunRecord(run_id=run_id, config=dict(config),
                               status="ok", metrics=outcome[0])
        else:
            error = outcome[0] if outcome else "run produced no result"
            record = RunRecord(run_id=run_id, config=dict(config),
                               status="failed", error=str(error))
        return self._finish(record)

    def _finish(self, record: RunRecord) -> RunRecord:
        self.records[record.run_id] = record
        if self.progress is not None:
            self.progress(record)
        return record

    # ------------------------------------------------------------------ #
    def run_baseline(self) -> RunRecord:
        """Measure the space's default configuration."""
        return self.run_config(self.space.default_config())

    def run_ablation(self) -> Tuple[
            RunRecord, List[Tuple[str, object, RunRecord]]]:
        """One-factor ablation: the baseline plus every single-knob change.

        Returns ``(baseline_record, runs)`` where each entry of ``runs``
        is ``(parameter, value, record)`` — crashed changes appear as
        ``failed`` records; the sweep always completes.
        """
        baseline_config = self.space.default_config()
        baseline = self.run_config(baseline_config)
        runs = [(parameter, value, self.run_config(config))
                for parameter, value, config in
                self.space.one_factor_configs(baseline_config)]
        return baseline, runs
