"""Benchmark — coalesced service throughput vs one-query-at-a-time.

The closed-loop serving scenario of the ROADMAP's north star: 16
concurrent clients issue label-propagation queries against one shared
graph through the :class:`~repro.service.service.PropagationService`.
The baseline drives the *same* requests through the same service layer
one query at a time with coalescing disabled (``window_seconds=0``,
``max_batch=1``), so the comparison isolates exactly what micro-batching
buys: the coalescer collects the concurrent arrivals and dispatches them
as stacked :func:`repro.engine.batch.run_batch` calls, amortising the
sparse adjacency traversal (and the per-call engine overhead) over every
query in the batch.

The asserted claim — **coalesced throughput ≥ 2× sequential at 16
concurrent clients** — runs on a dense-ish 800-node graph where the
SpMM is adjacency-bound (the regime the batched kernel targets).  Under
``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job, via ``scripts/
bench_record.py --smoke``) the graph shrinks and the threshold relaxes:
shared runners coalesce just as well but time far too noisily for a
tight ratio.

The two modes are timed in :data:`NUM_PAIRS` interleaved pairs — one
sequential and one coalesced drive of the same requests, back to back,
with the first arm alternating — and the gate reads the best pair
ratio, so host drift between drives cannot fake or hide a gap.

Every reply of every drive must agree with a direct sequential
:func:`repro.core.linbp.linbp` call to 1e-10 in both modes — the
throughput is only meaningful if the coalesced answers are the right
ones.
"""

from __future__ import annotations

import os
from typing import Dict, List

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
QUERIES_PER_CLIENT = 4 if SMOKE else 9
NUM_NODES = 400 if SMOKE else 800
EDGE_PROBABILITY = 0.08
NUM_ITERATIONS = 12
EPSILON = 0.005
WINDOW_SECONDS = 0.004
ASSERTED_SPEEDUP = 1.4 if SMOKE else 2.0
#: Interleaved (sequential, coalesced) drive pairs the gate is judged on.
NUM_PAIRS = 10


def _requests(graph, coupling) -> List[Dict]:
    """Distinct single-query requests (same graph/coupling, fresh beliefs)."""
    rng = np.random.default_rng(3)
    base = np.zeros((graph.num_nodes, 3))
    for node in rng.choice(graph.num_nodes, size=12, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        base[node] = [values[0], values[1], -values.sum()]
    scales = rng.uniform(0.5, 1.5, NUM_CLIENTS * QUERIES_PER_CLIENT)
    spec = QuerySpec(num_iterations=NUM_ITERATIONS)
    return [dict(graph_name="g", coupling=coupling,
                 explicit_residuals=base * scale, spec=spec)
            for scale in scales]


def _service(window_seconds: float, max_batch: int) -> PropagationService:
    # No result TTL/caching effects: every request is distinct, but keep
    # the cache tiny so lookups stay on the miss path deterministically.
    service = PropagationService(window_seconds=window_seconds,
                                 max_batch=max_batch,
                                 result_cache_size=1,
                                 result_ttl_seconds=None)
    return service


def _check_replies(run, expected) -> None:
    """Every reply of one drive must match sequential ``linbp()``."""
    assert len(run.results) == len(expected)
    for result, direct in zip(run.results, expected):
        assert np.abs(result.beliefs - direct.beliefs).max() < 1e-10


def test_service_coalesced_throughput(benchmark):
    """16 concurrent closed-loop clients vs one-query-at-a-time."""
    clear_plan_cache()
    graph = random_graph(NUM_NODES, EDGE_PROBABILITY, seed=1)
    coupling = synthetic_residual_matrix(epsilon=EPSILON)
    requests = _requests(graph, coupling)
    expected = [linbp(graph, coupling, request["explicit_residuals"],
                      num_iterations=NUM_ITERATIONS)
                for request in requests]

    sequential_service = _service(window_seconds=0.0, max_batch=1)
    sequential_service.register_graph("g", graph)
    sequential_harness = ServiceHarness(sequential_service)
    sequential_harness.run_sequential(requests[:NUM_CLIENTS])  # warm-up

    coalesced_service = _service(window_seconds=WINDOW_SECONDS,
                                 max_batch=NUM_CLIENTS)
    coalesced_service.register_graph("g", graph)
    coalesced_harness = ServiceHarness(coalesced_service)
    coalesced_harness.run_concurrent(requests[:2 * NUM_CLIENTS],
                                     num_clients=NUM_CLIENTS)  # warm-up

    def drive(arm):
        if arm == "sequential":
            run = sequential_harness.run_sequential(requests)
        else:
            run = coalesced_harness.run_concurrent(
                requests, num_clients=NUM_CLIENTS)
        _check_replies(run, expected)
        return run

    # Interleaved pairs, judged on the best pair ratio (the discipline
    # of test_bench_obs.py): both drives of a pair run back to back
    # under near-identical machine state, and the arm that goes first
    # alternates, so host drift cannot open or close the gap the way it
    # can between two blocks of drives.
    table = ResultTable(
        f"Service — {len(requests)} queries, {NUM_CLIENTS} clients, "
        f"coalesced vs one-at-a-time, {NUM_PAIRS} interleaved pairs "
        f"({graph.num_nodes} nodes, {graph.num_edges} edges)")
    ratios = []
    for index in range(NUM_PAIRS):
        order = ("sequential", "coalesced") if index % 2 == 0 \
            else ("coalesced", "sequential")
        runs = {arm: drive(arm) for arm in order}
        ratio = runs["coalesced"].throughput / runs["sequential"].throughput
        ratios.append(ratio)
        table.add_row(pair=index + 1, first=order[0],
                      sequential_rps=runs["sequential"].throughput,
                      coalesced_rps=runs["coalesced"].throughput,
                      speedup=ratio)
    speedup = max(ratios)
    median = float(np.median(ratios))
    coalescer_stats = coalesced_service.stats()["coalescer"]
    table.add_row(pair="best", speedup=speedup,
                  largest_batch=coalescer_stats["largest_batch"])
    table.add_row(pair="median", speedup=median)

    # The benchmark statistic is one coalesced closed-loop drive.
    benchmark.pedantic(
        lambda: coalesced_harness.run_concurrent(requests,
                                                 num_clients=NUM_CLIENTS),
        rounds=3, iterations=1)
    attach_table(benchmark, table)
    assert coalescer_stats["largest_batch"] > 1, \
        "the coalescer never batched anything — check the window"
    assert speedup >= ASSERTED_SPEEDUP, (
        f"coalesced throughput only {speedup:.2f}x one-query-at-a-time "
        f"in the best of {NUM_PAIRS} interleaved pairs with {NUM_CLIENTS} "
        f"clients (need >= {ASSERTED_SPEEDUP}x); pair ratios "
        f"{', '.join(f'{ratio:.2f}' for ratio in ratios)}, median "
        f"{median:.2f}")
