"""Behaviour tests for the micro-batching coalescer."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import linbp
from repro.coupling import synthetic_residual_matrix
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.service import MicroBatcher, PropagationService


def _echo_batch(items):
    """A batch function that tags every item with the batch size."""
    return [(item, len(items)) for item in items]


class _HeldPeer:
    """Keep one same-key submission in flight until released.

    Item ``0`` is submitted alone, so it dispatches at once, through a
    batch function that blocks on an event: every submission made before
    :meth:`release_once_entered` arrives while a peer is in flight.
    """

    def __init__(self, batcher, pool, key="key"):
        self.batcher = batcher
        self.entered = threading.Event()
        self.released = threading.Event()
        self.future = pool.submit(batcher.submit, key, 0, self._held_batch)
        assert self.entered.wait(timeout=10)

    def _held_batch(self, items):
        self.entered.set()
        self.released.wait(timeout=30)
        return _echo_batch(items)

    def release_once_entered(self, requests):
        """Release the peer once ``requests`` submissions entered submit."""
        deadline = time.monotonic() + 10
        while self.batcher.stats["requests"] < requests:
            assert time.monotonic() < deadline, "submitters never arrived"
            time.sleep(0.001)
        self.released.set()
        return self.future.result(timeout=10)


class TestCoalescing:
    def test_single_request_runs_alone(self):
        batcher = MicroBatcher(window_seconds=0.001, max_batch=8)
        result = batcher.submit("key", "a", _echo_batch)
        assert result == ("a", 1)
        assert batcher.stats["batches"] == 1
        assert batcher.stats["largest_batch"] == 1

    def test_concurrent_same_key_requests_coalesce(self):
        # Seven requests arrive while a peer is in flight: the first of
        # them leads a batch and waits out the window for the others.
        batcher = MicroBatcher(window_seconds=0.25, max_batch=8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            peer = _HeldPeer(batcher, pool)
            futures = [pool.submit(batcher.submit, "key", item, _echo_batch)
                       for item in range(1, 8)]
            assert peer.release_once_entered(8) == (0, 1)
            results = [future.result(timeout=10) for future in futures]
        # Everyone got their own item back, each exactly once.
        assert [item for item, _ in results] == list(range(1, 8))
        assert batcher.stats["largest_batch"] > 1
        assert batcher.stats["batches"] < 8
        assert batcher.stats["requests"] == 8

    def test_full_batch_dispatches_before_window(self):
        # With a peer in flight the leader waits for followers, but a
        # batch that reaches max_batch must dispatch at once: the full
        # batches answer while the peer is still held, long before the
        # 30 s window would end.
        batcher = MicroBatcher(window_seconds=30.0, max_batch=4)
        with ThreadPoolExecutor(max_workers=9) as pool:
            peer = _HeldPeer(batcher, pool)
            started = time.monotonic()
            futures = [pool.submit(batcher.submit, "key", item, _echo_batch)
                       for item in range(1, 9)]
            results = [future.result(timeout=10) for future in futures]
            elapsed = time.monotonic() - started
            assert not peer.future.done()
            assert peer.release_once_entered(9) == (0, 1)
        assert [item for item, _ in results] == list(range(1, 9))
        assert {size for _, size in results} == {4}
        assert batcher.stats["batches"] == 3
        assert elapsed < 10

    def test_leader_with_a_peer_in_flight_waits_the_window(self):
        batcher = MicroBatcher(window_seconds=0.2, max_batch=8)
        with ThreadPoolExecutor(max_workers=2) as pool:
            peer = _HeldPeer(batcher, pool)
            started = time.monotonic()
            assert batcher.submit("key", 1, _echo_batch) == (1, 1)
            waited = time.monotonic() - started
            assert peer.release_once_entered(2) == (0, 1)
        assert waited >= 0.19

    def test_lone_request_dispatches_without_waiting(self):
        # A submission with no same-key peer in flight never waits for
        # followers, however long the window.
        batcher = MicroBatcher(window_seconds=30.0, max_batch=8)
        started = time.monotonic()
        for item in range(10):
            assert batcher.submit("key", item, _echo_batch) == (item, 1)
        assert time.monotonic() - started < 5
        assert batcher.stats["batches"] == 10

        graph = random_graph(40, 0.12, seed=7)
        coupling = synthetic_residual_matrix(epsilon=0.05)
        service = PropagationService(window_seconds=30.0)
        service.register_graph("g", graph)
        rng = np.random.default_rng(5)
        started = time.monotonic()
        for _ in range(10):
            explicit = np.zeros((graph.num_nodes, 3))
            explicit[rng.choice(graph.num_nodes, size=4, replace=False)] = \
                [0.1, -0.05, -0.05]
            result = service.query("g", coupling, explicit)
            direct = linbp(graph, coupling, explicit)
            assert np.abs(result.beliefs - direct.beliefs).max() < 1e-10
        assert time.monotonic() - started < 5
        stats = service.stats()["coalescer"]
        assert stats["batches"] == 10
        assert stats["largest_batch"] == 1

    def test_keys_are_forgotten_once_their_requests_return(self):
        # Keys of retired snapshots must not pile up in the batcher.
        batcher = MicroBatcher(window_seconds=0.01, max_batch=4)
        for version in range(5):
            batcher.submit(("snapshot", version), version, _echo_batch)
        with pytest.raises(ZeroDivisionError):
            batcher.submit("key", "a", lambda items: 1 / 0 and [])
        with ThreadPoolExecutor(max_workers=4) as pool:
            peer = _HeldPeer(batcher, pool)
            futures = [pool.submit(batcher.submit, "key", item, _echo_batch)
                       for item in range(1, 4)]
            peer.release_once_entered(10)
            for future in futures:
                future.result(timeout=10)
        assert batcher._in_flight == {}
        assert batcher._pending == {}

    def test_distinct_keys_never_share_a_batch(self):
        batcher = MicroBatcher(window_seconds=0.25, max_batch=8)
        barrier = threading.Barrier(6)

        def client(item):
            barrier.wait()
            return batcher.submit(item % 2, item, _echo_batch)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(client, range(6)))
        for item, batch_size in results:
            assert batch_size <= 3  # at most the 3 requests of its key

    def test_zero_window_disables_coalescing(self):
        batcher = MicroBatcher(window_seconds=0.0, max_batch=8)
        for item in range(3):
            assert batcher.submit("key", item, _echo_batch) == (item, 1)
        assert batcher.stats["batches"] == 3
        assert batcher.stats["coalesced_requests"] == 0


class TestErrors:
    def test_batch_error_propagates_to_every_member(self):
        batcher = MicroBatcher(window_seconds=0.25, max_batch=4)
        barrier = threading.Barrier(4)

        def explode(items):
            raise RuntimeError("engine on fire")

        def client(item):
            barrier.wait()
            return batcher.submit("key", item, explode)

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(client, i) for i in range(4)]
            for future in futures:
                with pytest.raises(RuntimeError, match="engine on fire"):
                    future.result(timeout=10)

    def test_wrong_result_count_is_rejected(self):
        batcher = MicroBatcher(window_seconds=0.0, max_batch=4)
        with pytest.raises(ValidationError):
            batcher.submit("key", "a", lambda items: [])

    def test_next_batch_starts_clean_after_error(self):
        batcher = MicroBatcher(window_seconds=0.0, max_batch=4)
        with pytest.raises(ZeroDivisionError):
            batcher.submit("key", "a", lambda items: 1 / 0 and [])
        assert batcher.submit("key", "b", _echo_batch) == ("b", 1)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            MicroBatcher(window_seconds=-1.0)
        with pytest.raises(ValidationError):
            MicroBatcher(max_batch=0)
