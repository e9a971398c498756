"""Shared fixtures: small graphs, couplings and belief matrices used across
tests, a live TCP server and a coalescer hold for concurrent traffic."""

from __future__ import annotations

import asyncio
import itertools
import threading
import time

import numpy as np
import pytest

from repro.beliefs import BeliefMatrix
from repro.coupling import fraud_matrix, homophily_matrix, synthetic_residual_matrix
from repro.graphs import (
    chain_graph,
    random_graph,
    sbp_example_graph,
    torus_graph,
)
from repro.service import AsyncServiceServer, ServiceSession


@pytest.fixture
def torus():
    """The 8-node Example 20 torus graph."""
    return torus_graph()


@pytest.fixture
def torus_explicit():
    """Example 20 explicit beliefs on v1, v2, v3 (scaled by 0.1)."""
    explicit = np.zeros((8, 3))
    explicit[0] = [2.0, -1.0, -1.0]
    explicit[1] = [-1.0, 2.0, -1.0]
    explicit[2] = [-1.0, -1.0, 2.0]
    return explicit * 0.1


@pytest.fixture
def fraud_coupling():
    """The Fig. 1c coupling matrix at a convergent scale."""
    return fraud_matrix(epsilon=0.1)


@pytest.fixture
def sbp_example():
    """The 7-node Fig. 5a/b example graph."""
    return sbp_example_graph()


@pytest.fixture
def small_random_graph():
    """A small connected-ish random graph used by equivalence tests."""
    return random_graph(40, 0.12, seed=7)


@pytest.fixture
def small_random_workload(small_random_graph):
    """Graph, coupling and explicit beliefs for cross-implementation tests."""
    coupling = synthetic_residual_matrix(epsilon=0.5)
    rng = np.random.default_rng(11)
    explicit = np.zeros((small_random_graph.num_nodes, 3))
    for node in rng.choice(small_random_graph.num_nodes, size=6, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        explicit[node] = [values[0], values[1], -values.sum()]
    return small_random_graph, coupling, explicit


@pytest.fixture
def binary_chain_workload():
    """A 6-node chain with binary labels at both ends."""
    graph = chain_graph(6)
    beliefs = BeliefMatrix.from_labels({0: 0, 5: 1}, num_nodes=6, num_classes=2,
                                       magnitude=0.1)
    return graph, homophily_matrix(epsilon=0.2), beliefs.residuals


@pytest.fixture
def tcp_server():
    """A live :class:`AsyncServiceServer` (no coalescing window).

    Its event loop runs on a daemon thread; yields the bound
    ``(host, port)`` and shuts the server down afterwards.
    """
    loop = asyncio.new_event_loop()
    server = AsyncServiceServer(ServiceSession(window_seconds=0.0))
    address = loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_until_complete,
                              args=(server.serve_until_shutdown(),),
                              daemon=True)
    thread.start()
    yield address
    loop.call_soon_threadsafe(server.request_shutdown)
    thread.join(timeout=10)
    assert not thread.is_alive(), "server loop did not stop"
    loop.close()


@pytest.fixture
def hold_first_batch(monkeypatch):
    """Make concurrent requests meet a peer in flight in the coalescer.

    ``hold_first_batch(batcher, count)`` holds the first batch ``batcher``
    dispatches until ``count`` requests have entered ``submit``.  A lone
    first request dispatches at once, so without the hold a fast engine
    can answer each barrier-released request before the next arrives;
    with it, the later requests arrive while a same-key peer is in
    flight and share batches.
    """
    def hold(batcher, count: int) -> None:
        submit = batcher.submit
        dispatches = itertools.count()

        def held_submit(key, item, run):
            def held_run(items):
                if next(dispatches) == 0:
                    deadline = time.monotonic() + 30
                    while batcher.stats["requests"] < count:
                        assert time.monotonic() < deadline, \
                            "the other requests never reached the coalescer"
                        time.sleep(0.001)
                return run(items)
            return submit(key, item, held_run)

        monkeypatch.setattr(batcher, "submit", held_submit)

    return hold
