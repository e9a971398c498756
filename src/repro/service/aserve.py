"""The TCP front end of the propagation service, on asyncio.

:class:`AsyncServiceServer` serves a shared
:class:`~repro.service.protocol.ServiceSession` to every connection from
one event loop, under three policies that keep sustained mixed
mutation+query traffic in check:

* **Admission control** — a bounded count of in-flight requests across
  all connections (``max_pending``).  A request arriving over the bound
  is answered immediately with an ``overloaded`` error (503-style, in
  the request's own protocol version) instead of queueing without bound;
  the client retries with backoff.  Load shedding happens *before* any
  propagation work.
* **Backpressure** — a per-connection cap on requests admitted but not
  yet answered (``max_inflight``).  A connection pipelining past the cap
  is simply not read from until responses drain, so the kernel's TCP
  flow control pushes back on the sender — no buffering cliff.
  Responses are always written in request order per connection.
* **Staleness bounds** — request execution is off-loop (a worker-thread
  pool runs the blocking ``handle_line``), so queries never wait behind
  an in-progress mutation's lock; a query carrying ``"staleness": s``
  may additionally be served from a snapshot up to ``s`` versions old
  (see :meth:`repro.service.service.PropagationService.query`), keeping
  reads warm while a mutation's cold new version is computed.

Because every connection shares the session and requests run on a
thread pool, concurrent queries from different connections coalesce in
the service's micro-batcher.

Usage::

    server = AsyncServiceServer(session, max_pending=64, max_inflight=8)
    await server.start(host="127.0.0.1", port=7155)
    await server.serve_until_shutdown()     # returns after {"op": "shutdown"}

or, from the CLI, ``repro serve --port 7155``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from repro.exceptions import ValidationError
from repro.obs import counter
from repro.service.protocol import ServiceSession, _render_error

__all__ = ["AsyncServiceServer", "serve_async"]

#: Admission-control refusals (the per-instance ``stats["rejected"]``
#: dict entry remains the per-server source of truth).
REJECTIONS = counter(
    "repro_service_rejections_total",
    "Requests rejected by async admission control (overloaded).")

#: Default bound on in-flight requests across all connections.
DEFAULT_MAX_PENDING = 64
#: Default per-connection cap on admitted-but-unanswered requests.
DEFAULT_MAX_INFLIGHT = 8
#: Default worker threads executing requests (coalescing needs enough
#: workers for requests that arrive while a same-key query is in flight
#: to overlap inside the batch window; a lone request never waits).
DEFAULT_WORKERS = 16
#: Longest request line read, in bytes (asyncio's default stream limit).
#: A longer line is answered with one ``error`` line and skipped.
LINE_LIMIT = 2 ** 16


class AsyncServiceServer:
    """Asyncio TCP server with admission control and backpressure.

    Parameters
    ----------
    session:
        The shared :class:`ServiceSession`; built from
        ``session_options`` when omitted.
    max_pending:
        Global in-flight request bound; arrivals beyond it are rejected
        with an ``overloaded`` error (code ``overloaded`` in v1, an
        ``error server overloaded: ...`` line in v0).  ``0`` rejects
        everything — useful for drain/maintenance and tests.
    max_inflight:
        Per-connection cap on admitted-but-unanswered requests; a
        pipelining client is not read past it (TCP backpressure).
    workers:
        Threads executing ``handle_line`` off the event loop.
    """

    def __init__(self, session: Optional[ServiceSession] = None, *,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 workers: int = DEFAULT_WORKERS, **session_options):
        if max_pending < 0:
            raise ValidationError("max_pending must be >= 0")
        if max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1")
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        self.session = session if session is not None \
            else ServiceSession(**session_options)
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="aserve")
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._pending = 0  # loop-thread-only; no lock needed
        self._connections: set = set()
        self.stats = {"connections": 0, "requests": 0, "rejected": 0}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting connections; return ``(host, port)``.

        Port ``0`` lets the OS pick a free port — read the actual one
        from the return value or :attr:`address`.
        """
        if self._server is not None:
            raise ValidationError("server is already started")
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=LINE_LIMIT)
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of a started server."""
        if self._server is None or not self._server.sockets:
            raise ValidationError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_shutdown` to return (idempotent)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._shutdown_event is None:
            raise ValidationError("server is not started")
        await self._shutdown_event.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting, close open connections, drain the pool."""
        self.request_shutdown()
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        connections = [task for task in self._connections if not task.done()]
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # per-connection machinery
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats["connections"] += 1
        loop = asyncio.get_event_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        # The in-order response queue doubles as the in-flight cap: when
        # ``max_inflight`` responses are admitted but unwritten, the
        # ``put`` below blocks, the reader stops reading, and TCP flow
        # control backpressures the client.
        responses: asyncio.Queue = asyncio.Queue(maxsize=self.max_inflight)
        writer_task = loop.create_task(self._write_responses(responses,
                                                             writer))
        try:
            while not self._shutdown_event.is_set():
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    line = error.partial  # EOF, maybe after a last line
                except asyncio.LimitOverrunError:
                    # One reply for the whole oversized line: drop it
                    # through its newline so its tail is not a request.
                    await responses.put(_resolved(loop, _render_error(
                        0, "too-large", f"request line exceeds the "
                                        f"{LINE_LIMIT}-byte line limit")))
                    if await _skip_line(reader):
                        continue
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace")
                if not text.strip():
                    continue
                await responses.put(self._submit(loop, text))
            await responses.put(None)
            await writer_task
        except asyncio.CancelledError:
            # close() tears down lingering connections; exit cleanly so
            # the streams machinery never logs a cancelled handler.
            writer_task.cancel()
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _submit(self, loop: asyncio.AbstractEventLoop,
                line: str) -> "asyncio.Future":
        """Admit one request (or reject it) and return its future reply.

        Runs on the event-loop thread, so the pending counter needs no
        lock.  Admitted requests execute ``handle_line`` on the worker
        pool; rejected ones resolve immediately to an ``overloaded``
        error in the request's own protocol version.
        """
        if self._pending >= self.max_pending:
            self.stats["rejected"] += 1
            REJECTIONS.inc()
            return _resolved(loop, self.session.overload_response(
                line, f"server overloaded: {self._pending} requests in "
                      f"flight (max_pending={self.max_pending})"))
        self._pending += 1
        self.stats["requests"] += 1

        async def run():
            try:
                return await loop.run_in_executor(
                    self._executor, self.session.handle_line, line)
            finally:
                self._pending -= 1

        return loop.create_task(run())

    async def _write_responses(self, responses: asyncio.Queue,
                               writer: asyncio.StreamWriter) -> None:
        """Drain the response queue in admission order onto the socket."""
        while True:
            future = await responses.get()
            if future is None:
                return
            response, keep_running = await future
            writer.write((response + "\n").encode("utf-8"))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
            if not keep_running:
                # A shutdown op stops the whole server.  Closing this
                # connection's transport also unblocks its reader loop.
                self.request_shutdown()
                return


def _resolved(loop: asyncio.AbstractEventLoop,
              response: str) -> "asyncio.Future":
    """A reply future that is already done (no handler runs)."""
    future = loop.create_future()
    future.set_result((response, True))
    return future


async def _skip_line(reader: asyncio.StreamReader) -> bool:
    """Discard input through the next newline; ``False`` at EOF."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return False


async def serve_async(session: Optional[ServiceSession] = None, *,
                      host: str = "127.0.0.1", port: int = 0,
                      max_pending: int = DEFAULT_MAX_PENDING,
                      max_inflight: int = DEFAULT_MAX_INFLIGHT,
                      workers: int = DEFAULT_WORKERS,
                      ready=None) -> None:
    """Run an :class:`AsyncServiceServer` until a ``shutdown`` op.

    The coroutine behind ``repro serve --port``.  ``ready`` (when
    given) is called with the bound ``(host, port)`` once the server is
    listening — the CLI uses it to print the actual port.
    """
    server = AsyncServiceServer(session, max_pending=max_pending,
                                max_inflight=max_inflight, workers=workers)
    address = await server.start(host=host, port=port)
    if ready is not None:
        ready(address)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()
