"""The server child process, the closed-loop load generator, one run.

One process, one asyncio thread: the generator keeps at most two TCP
connections to ``repro serve --async``.  Every latency runs from the
moment a request line is written to the moment its reply line is read.
A request fails when its reply is an error, when no reply arrives within
the timeout, or when the connection drops; failures are recorded, never
waited on.  :func:`measure` runs one server mode (untraced, or through
``tracer.py``) from launch to shutdown.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from workloads import Request

#: Per-request reply timeout (seconds).
REQUEST_TIMEOUT = 30.0
#: Seconds a server may take to print its port, or to exit after shutdown.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
#: Replies to ``metrics`` and the traced server's ledger line run to
#: megabytes.
READ_LIMIT = 1 << 26

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on (\S+):(\d+)")


@dataclass
class Sample:
    """One request as the client saw it."""

    kind: str
    key: Optional[int]
    position: int
    sent: float = 0.0
    answered: Optional[float] = None
    reply: Optional[bytes] = None
    failure: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.answered - self.sent

    @property
    def ok(self) -> bool:
        return self.failure is None


class Server:
    """A ``repro serve --async --port 0`` child process."""

    def __init__(self, argv: List[str]):
        self.argv = argv
        self.process: Optional[asyncio.subprocess.Process] = None
        self.address: Tuple[str, int] = ("", 0)
        self.stderr: deque = deque(maxlen=50)
        #: The last line the server printed on standard output.
        self.stdout_tail = ""
        self._drains: List[asyncio.Task] = []

    async def start(self) -> Tuple[str, int]:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.process = await asyncio.create_subprocess_exec(
            *self.argv, cwd=ROOT, env=env, limit=READ_LIMIT,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE)
        loop = asyncio.get_running_loop()
        self._drains.append(loop.create_task(self._drain_stdout()))
        deadline = time.perf_counter() + START_TIMEOUT
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = await asyncio.wait_for(
                    self.process.stderr.readline(), max(remaining, 0.01))
            except asyncio.TimeoutError:
                line = b""
            if not line:
                await self.kill()
                raise RuntimeError("server did not start: "
                                   + " | ".join(self.stderr))
            text = line.decode(errors="replace").rstrip()
            self.stderr.append(text)
            match = _LISTENING.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                break
        self._drains.append(loop.create_task(self._drain_stderr()))
        return self.address

    async def _drain_stderr(self) -> None:
        while True:
            line = await self.process.stderr.readline()
            if not line:
                return
            self.stderr.append(line.decode(errors="replace").rstrip())

    async def _drain_stdout(self) -> None:
        while True:
            line = await self.process.stdout.readline()
            if not line:
                return
            if line.strip():
                self.stdout_tail = line.decode(errors="replace").strip()

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` in MB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> int:
        """Send ``shutdown`` and wait for the process to exit."""
        try:
            connection = await Connection.open(*self.address)
            try:
                await connection.call(b'{"op":"shutdown"}\n', STOP_TIMEOUT)
            finally:
                connection.close()
        except (OSError, asyncio.TimeoutError):
            pass
        try:
            code = await asyncio.wait_for(self.process.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            await self.kill()
            raise RuntimeError("server did not exit after shutdown")
        await asyncio.gather(*self._drains)
        return code

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()
        for task in self._drains:
            task.cancel()
        await asyncio.gather(*self._drains, return_exceptions=True)


class Connection:
    """One client TCP connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=READ_LIMIT)
        return cls(reader, writer)

    async def call(self, line: bytes, timeout: float = REQUEST_TIMEOUT
                   ) -> bytes:
        """Send one line and read its reply (one request in flight)."""
        self.writer.write(line)
        await self.writer.drain()
        reply = await asyncio.wait_for(self.reader.readline(), timeout)
        if not reply:
            raise ConnectionError("connection closed without a reply")
        return reply

    async def call_json(self, request: dict) -> dict:
        reply = await self.call(
            (json.dumps(request, separators=(",", ":")) + "\n").encode())
        body = json.loads(reply)
        if not body.get("ok"):
            raise RuntimeError(f"{request.get('op')} failed: {body}")
        return body

    def close(self) -> None:
        self.writer.close()


class Source:
    """Positions ``start, start+1, ...`` of one request sequence.

    ``item`` maps a position to its request and the position it repeats
    (``-1`` for none).  Streams sharing a source share its positions.
    ``answered`` maps each sent position to a future resolved when its
    reply is read (or the request fails).
    """

    def __init__(self, item: Callable[[int], Tuple[Request, int]],
                 start: int = 0, limit: Optional[int] = None):
        self.item = item
        self.position = start
        self.limit = limit
        self.answered: Dict[int, asyncio.Future] = {}

    def take(self) -> Optional[Tuple[Request, int, int]]:
        if self.limit is not None and self.position >= self.limit:
            return None
        position = self.position
        self.position += 1
        request, repeated = self.item(position)
        return request, position, repeated


@dataclass
class Stream:
    """One connection's share of the load: its source and its depth."""

    source: Source
    depth: int


def classify(reply: bytes) -> Optional[str]:
    """``None`` for an ``ok`` reply, else the failure it records."""
    try:
        body = json.loads(reply)
    except ValueError:
        return "unparseable reply"
    if body.get("ok"):
        return None
    error = body.get("error") or {}
    return f"error reply: {error.get('code')}: {error.get('message')}"


async def drive(streams: List[Stream], address: Tuple[str, int],
                deadline: float, log: List[Sample]) -> None:
    """Run every stream in a closed loop until ``deadline``, then drain.

    A repeated request is sent only once the request it repeats has been
    answered, so its result is certain to be in the result cache.
    """
    await asyncio.gather(*(_drive_one(stream, address, deadline, log)
                           for stream in streams))


async def _drive_one(stream: Stream, address: Tuple[str, int],
                     deadline: float, log: List[Sample]) -> None:
    loop = asyncio.get_running_loop()
    answered = stream.source.answered
    connection = await Connection.open(*address)
    inflight: deque = deque()
    held = None
    try:
        while True:
            while len(inflight) < stream.depth \
                    and time.perf_counter() < deadline:
                item = held if held is not None else stream.source.take()
                held = None
                if item is None:
                    break
                request, position, repeated = item
                if repeated >= 0 and not answered[repeated].done():
                    if inflight:
                        held = item
                        break
                    await answered[repeated]
                sample = Sample(request.kind, request.key, position)
                answered[position] = loop.create_future()
                sample.sent = time.perf_counter()
                connection.writer.write(request.line)
                inflight.append(sample)
                log.append(sample)
            if not inflight:
                if held is None or time.perf_counter() >= deadline:
                    return
                continue
            try:
                await connection.writer.drain()
                wait = inflight[0].sent + REQUEST_TIMEOUT \
                    - time.perf_counter()
                reply = await asyncio.wait_for(connection.reader.readline(),
                                               max(wait, 0.0))
                failure = None if reply else "connection dropped"
            except asyncio.TimeoutError:
                reply, failure = b"", "timeout"
            except (ConnectionError, OSError, ValueError) as error:
                reply, failure = b"", f"connection dropped: {error}"
            if failure is not None:
                # Replies come back in request order: a dropped or stuck
                # connection loses every request still in flight on it.
                for sample in inflight:
                    sample.failure = failure
                    answered[sample.position].set_result(False)
                inflight.clear()
                connection.close()
                if time.perf_counter() >= deadline:
                    return
                connection = await Connection.open(*address)
                continue
            sample = inflight.popleft()
            sample.answered = time.perf_counter()
            sample.reply = reply
            sample.failure = classify(reply)
            answered[sample.position].set_result(sample.ok)
    finally:
        connection.close()


def cpu_steal_seconds() -> float:
    """Cumulative steal time of all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


@dataclass
class Counts:
    """Server counters read through the ``stats`` and v1 ``metrics`` ops."""

    values: Dict[str, float]

    def __sub__(self, other: "Counts") -> "Counts":
        return Counts({key: value - other.values.get(key, 0.0)
                       for key, value in self.values.items()})


def _series_sum(metrics: dict, name: str, **labels) -> float:
    entry = metrics.get(name) or {}
    return float(sum(series.get("value", 0.0)
                     for series in entry.get("series", ())
                     if all(series["labels"].get(key) == value
                            for key, value in labels.items())))


def counts_from(stats: dict, metrics: dict) -> Counts:
    coalescer = stats["coalescer"]
    views = [view for graph in stats.get("views", {}).values()
             for view in graph.values()]
    return Counts({
        "queries": stats["queries"],
        "updates": stats["updates"],
        "batches": coalescer["batches"],
        "batched_requests": coalescer["requests"],
        "cache_hits": _series_sum(
            metrics, "repro_service_result_cache_lookups_total",
            outcome="hit"),
        "cache_lookups": _series_sum(
            metrics, "repro_service_result_cache_lookups_total"),
        "sweeps": _series_sum(metrics, "repro_engine_sweeps_total",
                              engine="batch"),
        "plan_builds": _series_sum(metrics, "repro_plan_builds_total"),
        "plan_hits": _series_sum(metrics, "repro_plan_cache_hits_total"),
        "rejected": _series_sum(metrics, "repro_service_rejections_total"),
        "nodes_updated": sum(view["nodes_updated_total"] for view in views),
    })


@dataclass
class Run:
    """What one server mode (untraced or traced) measured."""

    traced: bool
    setup_s: List[float] = field(default_factory=list)
    samples: List = field(default_factory=list)
    measured: List = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    steal_s: float = 0.0
    peak_rss_mb: float = 0.0
    counts: Optional[Counts] = None
    ledger: Optional[dict] = None

    @property
    def ok(self) -> List:
        return [s for s in self.measured if s.ok]


def server_argv(traced: bool) -> List[str]:
    serve = ["serve", "--async", "--port", "0"]
    if traced:
        return [sys.executable, os.path.join(HERE, "tracer.py")] + serve
    return [sys.executable, "-m", "repro"] + serve


def streams_for(workload) -> List[Stream]:
    """The workload's connections: (source, requests in flight) each."""
    queries = Source(workload.query, start=1)
    if workload.name == "stream-views":
        writes = Source(lambda p: (workload.writes[p], -1),
                        limit=len(workload.writes))
        return [Stream(writes, 1), Stream(queries, 1)]
    return [Stream(queries, workload.depth)
            for _ in range(workload.connections)]


async def _snapshot(address: Tuple[str, int]) -> Counts:
    connection = await Connection.open(*address)
    try:
        stats = (await connection.call_json({"op": "stats", "v": 1}))["stats"]
        metrics = (await connection.call_json(
            {"op": "metrics", "v": 1}))["metrics"]
    finally:
        connection.close()
    return counts_from(stats, metrics)


async def _set_up(workload, argv: List[str], samples: List[Sample]):
    """Launch one server and bring it to its first answered query."""
    server = Server(argv)
    launched = time.perf_counter()
    try:
        await server.start()
        connection = await Connection.open(*server.address)
        try:
            for request in workload.setup:
                reply = await connection.call(request.line)
                failure = classify(reply)
                if failure is not None:
                    raise RuntimeError(f"setup {request.kind} failed: "
                                       f"{failure}")
            first, _ = workload.query(0)
            sample = Sample(first.kind, first.key, 0,
                            sent=time.perf_counter())
            sample.reply = await connection.call(first.line)
            sample.answered = time.perf_counter()
            sample.failure = classify(sample.reply)
            samples.append(sample)
        finally:
            connection.close()
    except BaseException:
        await server.kill()
        raise
    return server, sample.answered - launched


async def measure(workload, seconds: float, traced: bool,
                  setups: int, warmup: float) -> Run:
    """One server mode: ``setups`` launches, warm-up, the measured phase.

    The last server launched runs the warm-up and the measured phase and
    is shut down before this returns; every server is stopped or killed
    whatever happens.
    """
    run = Run(traced=traced)
    argv = server_argv(traced)
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                await server.stop()
            server, elapsed = await _set_up(workload, argv, run.samples)
            run.setup_s.append(elapsed)
        streams = streams_for(workload)
        await drive(streams, server.address, time.perf_counter() + warmup,
                    run.samples)
        before = await _snapshot(server.address)
        cpu = server.cpu_seconds()
        steal = cpu_steal_seconds()
        run.start = time.perf_counter()
        await drive(streams, server.address, run.start + seconds,
                    run.measured)
        run.end = time.perf_counter()
        run.cpu_s = server.cpu_seconds() - cpu
        run.steal_s = cpu_steal_seconds() - steal
        run.peak_rss_mb = server.peak_rss_mb()
        run.counts = await _snapshot(server.address) - before
        run.samples.extend(run.measured)
        code = await server.stop()
        if code != 0:
            raise RuntimeError(f"server exited with status {code}")
        if traced:
            run.ledger = json.loads(server.stdout_tail)
    except BaseException:
        if server is not None:
            await server.kill()
        raise
    return run
