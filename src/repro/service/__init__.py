"""The propagation service: batch kernels turned into a traffic-serving layer.

The paper's pitch is that linearized BP is cheap enough to run *as a
service* over standard infrastructure (Section 5.3).  This package is
that layer for the reproduction:

* :mod:`repro.service.service` — :class:`PropagationService`: versioned
  graph snapshots (mutations ride the existing ΔSBP / incremental-LinBP
  paths and bump a snapshot id), bounded-staleness reads over a short
  snapshot history, maintained views, a TTL+LRU result cache, and
  coalesced one-shot queries;
* :mod:`repro.service.spec` — :class:`QuerySpec`, the frozen parameter
  object shared by :meth:`PropagationService.query`, the coalescer's
  batch key, and the wire protocol;
* :mod:`repro.service.coalescer` — :class:`MicroBatcher`, the
  leader/follower micro-batching primitive that turns concurrent
  single-query traffic into stacked :func:`repro.engine.batch.run_batch`
  / :func:`repro.engine.sbp_plan.run_sbp_batch` calls;
* :mod:`repro.service.protocol` / :mod:`repro.service.server` — the
  ``repro serve`` line protocol (versioned: legacy plain-text v0 and
  JSON v1 responses with a stable error-code taxonomy) over stdin or
  TCP;
* :mod:`repro.service.aserve` — :class:`AsyncServiceServer`, the
  asyncio front end with admission control and per-connection
  backpressure (``repro serve --async``);
* :mod:`repro.service.harness` — :class:`ServiceHarness`, the
  closed-loop client driver used by the service benchmarks and the
  equivalence tests.

See ``docs/api.md`` for the request/response reference,
``docs/performance.md`` for the serving guide, and
``benchmarks/test_bench_service.py`` / ``test_bench_stream.py`` for the
coalescing-throughput and streaming-latency claims.
"""

from repro.service.aserve import AsyncServiceServer, serve_async
from repro.service.coalescer import MicroBatcher
from repro.service.harness import HarnessRun, ServiceHarness
from repro.service.protocol import ServiceSession, error_code
from repro.service.server import LineProtocolServer, serve_stream
from repro.service.service import GraphSnapshot, PropagationService
from repro.service.spec import QuerySpec

__all__ = [
    "MicroBatcher",
    "HarnessRun",
    "ServiceHarness",
    "ServiceSession",
    "error_code",
    "LineProtocolServer",
    "serve_stream",
    "AsyncServiceServer",
    "serve_async",
    "GraphSnapshot",
    "PropagationService",
    "QuerySpec",
]
