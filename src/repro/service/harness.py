"""Closed-loop client harness for driving a :class:`PropagationService`.

Benchmarks and tests need the same traffic shape: ``N`` requests issued
by ``c`` concurrent clients, each client submitting its share one at a
time (a *closed loop* — a client only issues its next request after the
previous one returned, the way real callers behave).  The harness runs
that shape against a service and reports per-request results and
latencies in input order plus the elapsed wall-clock time, so a
coalescing service can be compared directly against a
one-query-at-a-time baseline and tail latency (p99) can be gated.

Two traffic shapes:

* :meth:`ServiceHarness.run_sequential` / ``run_concurrent`` — queries
  only, the coalescing-throughput shape;
* :meth:`ServiceHarness.run_mixed` — queries interleaved with graph
  mutations (each request dict carries ``"op": "query"`` or
  ``"update"``), the streaming shape the async front end is built for.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.exceptions import ValidationError
from repro.service.service import PropagationService

__all__ = ["ServiceHarness", "HarnessRun"]


@dataclass
class HarnessRun:
    """Outcome of one harness drive: ordered results, latencies, timing."""

    results: List[object]
    elapsed_seconds: float
    #: Per-request wall-clock seconds, in input order (same length and
    #: order as ``results``).
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed requests per second."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return len(self.results) / self.elapsed_seconds

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the per-request latencies (seconds).

        ``percentile(50)`` is the median, ``percentile(99)`` the p99 the
        streaming benchmark gates on.  Nearest-rank is exact on the
        recorded samples: the returned value is always one of the
        latencies, never an interpolation.
        """
        if not self.latencies:
            raise ValidationError("this run recorded no latencies")
        p = float(p)
        if not 0 < p <= 100:
            raise ValidationError("percentile must lie in (0, 100]")
        ordered = sorted(self.latencies)
        # Round before ceiling: binary float products like 29 / 100 * 100
        # land epsilon above the exact integer rank and would otherwise
        # ceil one rank too high; clamp guards the p == 100 boundary.
        rank = math.ceil(round(p / 100.0 * len(ordered), 9))
        rank = min(max(rank, 1), len(ordered))
        return ordered[rank - 1]

    @property
    def p99(self) -> float:
        """The 99th-percentile request latency in seconds."""
        return self.percentile(99.0)


class ServiceHarness:
    """Drive a service with sequential or concurrent closed-loop clients.

    Every *request* is a keyword dict for
    :meth:`~repro.service.service.PropagationService.query`, e.g.
    ``{"graph_name": "g", "coupling": coupling, "explicit_residuals": e}``.
    For :meth:`run_mixed` a request may additionally carry ``"op"``:
    ``"query"`` (default) or ``"update"``; the remaining keys are the
    keyword arguments of the corresponding service method.
    """

    def __init__(self, service: PropagationService):
        self.service = service

    def _issue(self, request: Dict) -> object:
        """Execute one mixed-traffic request against the service."""
        kwargs = dict(request)
        op = kwargs.pop("op", "query")
        if op == "query":
            return self.service.query(**kwargs)
        if op == "update":
            return self.service.update(**kwargs)
        raise ValidationError(
            f"unknown harness op {op!r} (expected 'query' or 'update')")

    def run_sequential(self, requests: Sequence[Dict]) -> HarnessRun:
        """Issue every request one at a time from the calling thread."""
        results: List[object] = []
        latencies: List[float] = []
        start = time.perf_counter()
        for request in requests:
            issued = time.perf_counter()
            results.append(self.service.query(**request))
            latencies.append(time.perf_counter() - issued)
        return HarnessRun(results, time.perf_counter() - start, latencies)

    def run_concurrent(self, requests: Sequence[Dict],
                       num_clients: int = 16) -> HarnessRun:
        """Issue the requests from ``num_clients`` closed-loop threads.

        Requests are dealt round-robin to the clients; client ``j``
        issues requests ``j, j + c, j + 2c, ...`` sequentially.  The
        returned results are in the original request order.  The first
        worker error (if any) is re-raised after all clients stopped.
        """
        return self._run_threaded(requests, num_clients, mixed=False)

    def run_mixed(self, requests: Sequence[Dict],
                  num_clients: int = 16) -> HarnessRun:
        """Drive a mixed query/update workload from closed-loop clients.

        Identical dealing and ordering to :meth:`run_concurrent`, but
        each request may carry ``"op": "update"`` to mutate the graph
        mid-stream — the shape that exercises snapshot versioning,
        view repair, and bounded-staleness reads all at once.  Query results are
        :class:`~repro.core.results.PropagationResult` objects, update
        results are the new snapshots.
        """
        return self._run_threaded(requests, num_clients, mixed=True)

    def _run_threaded(self, requests: Sequence[Dict], num_clients: int,
                      mixed: bool) -> HarnessRun:
        if num_clients < 1:
            raise ValidationError("num_clients must be >= 1")
        num_clients = min(num_clients, max(1, len(requests)))
        results: List[object] = [None] * len(requests)
        latencies: List[float] = [0.0] * len(requests)
        errors: List[BaseException] = []
        error_lock = threading.Lock()
        barrier = threading.Barrier(num_clients)

        def client(offset: int) -> None:
            # Line every client up before the clock-relevant work so the
            # coalescer sees genuinely concurrent arrivals from the start.
            barrier.wait()
            try:
                for index in range(offset, len(requests), num_clients):
                    issued = time.perf_counter()
                    if mixed:
                        results[index] = self._issue(requests[index])
                    else:
                        results[index] = self.service.query(
                            **requests[index])
                    latencies[index] = time.perf_counter() - issued
            except BaseException as exc:  # propagate to the caller
                with error_lock:
                    errors.append(exc)

        threads = [threading.Thread(target=client, args=(offset,),
                                    name=f"harness-client-{offset}")
                   for offset in range(num_clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return HarnessRun(results, elapsed, latencies)
