"""Micro-batching coalescer: many concurrent requests, one stacked call.

The batched engine entry points (:func:`repro.engine.batch.run_batch`,
:func:`repro.engine.sbp_plan.run_sbp_batch`) amortise the sparse-matrix
traversal over every query in a batch — but they need a *batch* to work
on, and independent clients submit one query at a time.  The
:class:`MicroBatcher` closes that gap: concurrent submissions that share
a *batch key* (same graph snapshot, coupling values and solver
parameters) are dispatched together as one stacked call, and each
submitter receives exactly its own result.

The design is leader-based and lock-light:

* the batcher counts each key's submissions *in flight* (entered
  :meth:`~MicroBatcher.submit`, not yet returned) under its lock, and
  forgets a key as soon as its count is back to zero;
* the submitter that finds no open batch for its key becomes the batch
  *leader*.  With no same-key peer in flight it closes its batch and
  dispatches at once, so a lone request never waits.  While a peer is
  in flight it registers a pending batch and waits up to
  ``window_seconds`` for followers — the requests that arrive while the
  peer's batch runs — then closes the batch, runs the supplied batch
  function once, and publishes the results;
* **followers** append their item to the pending batch and block on the
  batch's completion event — they never touch the engine;
* a batch is dispatched *early* as soon as it reaches ``max_batch``
  items, so saturated closed-loop traffic never pays the window latency.

The batch function is called with the items in submission order and must
return one result per item, in the same order; this is exactly the
contract of the engine's ``run_batch``/``run_sbp_batch``, whose results
are equivalent to sequential per-query calls (the tests assert the
1e-10 agreement through the full service stack).  If the batch function
raises, every member of the batch observes the same exception.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Sequence

from repro.exceptions import ValidationError
from repro.obs import counter, span

__all__ = ["MicroBatcher"]

#: Global coalescing telemetry (the per-instance ``stats`` dict stays
#: the source of truth for ``PropagationService.stats()``).
BATCHES = counter("repro_coalescer_batches_total",
                  "Micro-batches dispatched by the coalescer.")
COALESCED = counter("repro_coalescer_coalesced_requests_total",
                    "Requests that shared a dispatched micro-batch "
                    "(batches of one count zero).")


class _PendingBatch:
    """One in-flight batch: items, synchronisation events, outcome."""

    __slots__ = ("items", "results", "error", "done", "full", "closed")

    def __init__(self):
        self.items: List[object] = []
        self.results: Sequence[object] = ()
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.full = threading.Event()
        #: Once True, late submitters must start a fresh batch.
        self.closed = False


class MicroBatcher:
    """Coalesce concurrent same-key submissions into single batched calls.

    Parameters
    ----------
    window_seconds:
        How long a batch leader waits for followers before dispatching,
        paid only while another submission for the same key is in
        flight; a lone submission dispatches at once.  ``0`` disables
        coalescing (every request dispatches immediately, still through
        the same code path — useful as a baseline).
    max_batch:
        Dispatch early once this many requests joined one batch.

    Notes
    -----
    The instance is thread-safe; ``stats`` is a plain dict updated under
    the internal lock (read it without the lock only for monitoring).
    """

    def __init__(self, window_seconds: float = 0.002, max_batch: int = 16):
        if window_seconds < 0:
            raise ValidationError("window_seconds must be >= 0")
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._pending: Dict[Hashable, _PendingBatch] = {}
        #: Submissions per key that entered :meth:`submit` and have not
        #: returned; a key leaves the dict when its count reaches zero.
        self._in_flight: Dict[Hashable, int] = {}
        self.stats = {"requests": 0, "batches": 0,
                      "coalesced_requests": 0, "largest_batch": 0}

    def submit(self, key: Hashable, item: object,
               run: Callable[[List[object]], Sequence[object]]) -> object:
        """Submit one item; block until its result is available.

        ``run`` is the batch function used *if this submission ends up
        leading a batch*; all submissions sharing a key must pass
        functions that agree on semantics (in the service, the key
        derives from the same parameters the function closes over).
        Returns this item's result, raises what ``run`` raised.
        """
        with self._lock:
            self.stats["requests"] += 1
            peers = self._in_flight.get(key, 0)
            self._in_flight[key] = peers + 1
            batch = self._pending.get(key)
            leader = batch is None or batch.closed
            wait = False
            if leader:
                batch = _PendingBatch()
                # Only a leader with a same-key peer in flight collects
                # followers; a lone one closes its batch right away.
                wait = peers > 0 and self.window_seconds > 0 \
                    and self.max_batch > 1
                if wait:
                    self._pending[key] = batch
                else:
                    batch.closed = True
            index = len(batch.items)
            batch.items.append(item)
            if len(batch.items) >= self.max_batch:
                batch.closed = True
                batch.full.set()
        try:
            if not leader:
                batch.done.wait()
                if batch.error is not None:
                    raise batch.error
                return batch.results[index]
            return self._lead(key, batch, index, wait, run)
        finally:
            with self._lock:
                if self._in_flight[key] == 1:
                    del self._in_flight[key]
                else:
                    self._in_flight[key] -= 1

    def _lead(self, key: Hashable, batch: _PendingBatch, index: int,
              wait: bool, run: Callable[[List[object]], Sequence[object]]
              ) -> object:
        """Close ``batch`` (after the window when ``wait``) and run it."""
        # From the moment the batch is registered, the leader owes its
        # followers a completion signal: everything up to and including
        # the dispatch runs under one try/finally, so even an exception
        # raised *while waiting* (e.g. a KeyboardInterrupt delivered to
        # the leader thread) can never strand followers on done.wait().
        try:
            if wait:
                batch.full.wait(self.window_seconds)
            with self._lock:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
                items = list(batch.items)
                self.stats["batches"] += 1
                if len(items) > 1:
                    self.stats["coalesced_requests"] += len(items)
                if len(items) > self.stats["largest_batch"]:
                    self.stats["largest_batch"] = len(items)
            BATCHES.inc()
            if len(items) > 1:
                COALESCED.inc(len(items))
            with span("service.coalesce_dispatch", batch=len(items)):
                results = run(items)
            if len(results) != len(items):
                raise ValidationError(
                    f"batch function returned {len(results)} results "
                    f"for {len(items)} items")
            batch.results = results
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            with self._lock:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
            batch.done.set()
        return results[index]
