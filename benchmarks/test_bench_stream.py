"""Benchmark — streaming mixed update/query traffic with a p99 gate.

The streaming scenario snapshot versioning exists for: 16 closed-loop
clients drive a :class:`~repro.service.service.PropagationService`
with *mixed* traffic — one client issues edge-delta updates (in order,
so the snapshot-version chain is deterministic), the other fifteen
issue label-propagation queries, some with a staleness bound of one
version.  Queries keep flowing against pinned snapshots while
mutations install new ones.

Gates, in order of importance:

* **Correctness** — every query's beliefs must match a direct
  :func:`repro.core.linbp.linbp` call on the exact graph version the
  service reports having served (``result.extra["snapshot_version"]``),
  to 1e-10, under concurrency.
* **Every update applied** — the service must count one update per
  edge delta, and its final snapshot version must equal that count.
* **p99 latency** — the 99th-percentile *query* latency must stay under
  a stall budget (:data:`P99_BUDGET_SECONDS`).  The budget is loose on
  purpose: a query on this graph takes single-digit milliseconds, so
  the gate only trips when reads serialise behind mutations (the
  failure mode this layer is designed out of), not on scheduler noise.

Under ``REPRO_BENCH_SMOKE=1`` the graph shrinks and the budget relaxes
further for shared CI runners.  Recorded via ``scripts/bench_record.py
--suite stream`` into ``BENCH_stream.json``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from benchmarks.conftest import attach_table
from repro.core.linbp import linbp
from repro.coupling import synthetic_residual_matrix
from repro.engine import clear_plan_cache
from repro.experiments.runner import ResultTable
from repro.graphs import random_graph
from repro.service import PropagationService, QuerySpec, ServiceHarness

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_CLIENTS = 16
REQUESTS_PER_CLIENT = 6 if SMOKE else 10
NUM_NODES = 240 if SMOKE else 800
EDGE_PROBABILITY = 0.08
NUM_ITERATIONS = 12
EPSILON = 0.005
EDGES_PER_UPDATE = 3
P99_BUDGET_SECONDS = 1.5 if SMOKE else 0.75


def _edge_deltas(graph, count: int, rng) -> List[List[Tuple[int, int]]]:
    """``count`` disjoint batches of edges absent from ``graph``."""
    adjacency = graph.adjacency
    chosen = set()
    deltas = []
    for _ in range(count):
        delta = []
        while len(delta) < EDGES_PER_UPDATE:
            u, v = rng.integers(0, graph.num_nodes, size=2)
            u, v = int(u), int(v)
            if u == v or (u, v) in chosen or (v, u) in chosen:
                continue
            if adjacency[u, v] != 0:
                continue
            chosen.add((u, v))
            delta.append((u, v))
        deltas.append(delta)
    return deltas


def _requests(graph, coupling,
              deltas: List[List[Tuple[int, int]]]) -> List[Dict]:
    """Mixed workload: client 0 updates in order, clients 1-15 query.

    Request index ``i`` is dealt to client ``i % NUM_CLIENTS`` by the
    harness, so putting every update at ``i % NUM_CLIENTS == 0`` makes
    one client apply the deltas sequentially — the snapshot-version
    chain is then deterministic and each version's expected graph is
    checkable.
    """
    rng = np.random.default_rng(11)
    base = np.zeros((graph.num_nodes, 3))
    for node in rng.choice(graph.num_nodes, size=12, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        base[node] = [values[0], values[1], -values.sum()]
    spec = QuerySpec(num_iterations=NUM_ITERATIONS)
    requests: List[Dict] = []
    update_index = 0
    total = NUM_CLIENTS * REQUESTS_PER_CLIENT
    for i in range(total):
        if i % NUM_CLIENTS == 0 and update_index < len(deltas):
            requests.append(dict(op="update", graph_name="g",
                                 new_edges=deltas[update_index]))
            update_index += 1
        else:
            requests.append(dict(
                graph_name="g", coupling=coupling,
                explicit_residuals=base * rng.uniform(0.5, 1.5),
                spec=spec, max_staleness=1 if i % 3 else 0))
    return requests


def _service() -> PropagationService:
    return PropagationService(window_seconds=0.002, max_batch=NUM_CLIENTS,
                              result_cache_size=64, result_ttl_seconds=None,
                              snapshot_history=4)


def _drive(graph, requests):
    """One fresh-service mixed drive (updates mutate, so never reuse)."""
    service = _service()
    service.register_graph("g", graph)
    harness = ServiceHarness(service)
    run = harness.run_mixed(requests, num_clients=NUM_CLIENTS)
    return service, run


def test_stream_mixed_workload_p99(benchmark):
    """16 mixed closed-loop clients: correctness, updates, p99 gate."""
    clear_plan_cache()
    graph = random_graph(NUM_NODES, EDGE_PROBABILITY, seed=7)
    coupling = synthetic_residual_matrix(epsilon=EPSILON)
    rng = np.random.default_rng(23)
    num_updates = REQUESTS_PER_CLIENT
    deltas = _edge_deltas(graph, num_updates, rng)
    requests = _requests(graph, coupling, deltas)

    # Expected graph at every snapshot version (updates apply in order).
    graphs = [graph]
    for delta in deltas:
        graphs.append(graphs[-1].with_edges_added(delta))

    _drive(graph, requests)  # warm-up: plan cache, thread pools
    service, run = _drive(graph, requests)

    # Correctness: each query must equal direct linbp() on the exact
    # version the service says it served (staleness-bounded queries may
    # legitimately report an older one).
    query_latencies = []
    checked = 0
    for request, result, latency in zip(requests, run.results,
                                        run.latencies):
        if request.get("op") == "update":
            continue
        query_latencies.append(latency)
        version = result.extra["snapshot_version"]
        direct = linbp(graphs[version], coupling,
                       request["explicit_residuals"],
                       num_iterations=NUM_ITERATIONS)
        assert np.abs(result.beliefs - direct.beliefs).max() < 1e-10
        checked += 1
    assert checked == len(requests) - num_updates

    stats = service.stats()
    assert stats["updates"] == num_updates, stats
    assert service.snapshot("g").version == num_updates

    query_run_p99 = sorted(query_latencies)[
        max(0, int(np.ceil(0.99 * len(query_latencies))) - 1)]
    table = ResultTable(
        f"Stream — {len(requests)} mixed requests ({num_updates} updates), "
        f"{NUM_CLIENTS} clients")
    table.add_row(
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        requests=len(requests),
        updates=num_updates,
        throughput_rps=run.throughput,
        p50_s=run.percentile(50),
        p99_s=run.p99,
        query_p99_s=query_run_p99,
    )
    # The benchmark statistic is one full mixed drive on a fresh service.
    benchmark.pedantic(lambda: _drive(graph, requests),
                       rounds=3, iterations=1)
    attach_table(benchmark, table)
    assert query_run_p99 <= P99_BUDGET_SECONDS, (
        f"p99 query latency {query_run_p99:.3f}s blew the "
        f"{P99_BUDGET_SECONDS}s stall budget — reads are serialising "
        f"behind mutations")
