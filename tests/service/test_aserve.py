"""AsyncServiceServer: admission control, backpressure, ordering, shutdown."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import linbp
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.service import AsyncServiceServer, ServiceSession, serve_async

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning:asyncio")


def _line(**request) -> str:
    return json.dumps(request)


def _loaded_session() -> ServiceSession:
    session = ServiceSession(window_seconds=0.05, max_batch=8)
    graph = random_graph(30, 0.15, seed=3)
    session.handle_line(_line(
        op="load_graph", name="g",
        edges=[[e.source, e.target, e.weight] for e in graph.edges()],
        num_nodes=graph.num_nodes))
    session.handle_line(_line(
        op="load_coupling", name="h",
        stochastic=[[0.9, 0.1], [0.1, 0.9]], epsilon=0.05))
    return session


def _query_line(**extra) -> str:
    request = dict(v=1, op="query", graph="g", coupling="h",
                   beliefs=[[0, 0, 0.9], [0, 1, -0.9]])
    request.update(extra)
    return json.dumps(request)


async def _talk(address, lines):
    """One connection: send each line, await its response (closed loop)."""
    reader, writer = await asyncio.open_connection(*address)
    responses = []
    try:
        for line in lines:
            writer.write((line + "\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=30)
            responses.append(raw.decode().rstrip("\n"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return responses


async def _pipeline(address, lines):
    """One connection: write every line up front, then read all responses."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(("".join(line + "\n" for line in lines)).encode())
    await writer.drain()
    responses = []
    for _ in lines:
        raw = await asyncio.wait_for(reader.readline(), timeout=30)
        responses.append(raw.decode().rstrip("\n"))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return responses


class TestLifecycle:
    def test_start_serve_shutdown_op(self):
        async def scenario():
            server = AsyncServiceServer(_loaded_session())
            address = await server.start()
            serve = asyncio.get_event_loop().create_task(
                server.serve_until_shutdown())
            out = await _talk(address, [_line(v=1, op="ping"),
                                        _line(v=1, op="shutdown")])
            assert json.loads(out[0]) == {"ok": True, "v": 1, "op": "ping"}
            assert json.loads(out[1])["ok"] is True
            await asyncio.wait_for(serve, timeout=10)
            return server

        server = asyncio.run(scenario())
        assert server.stats["connections"] == 1
        assert server.stats["requests"] == 2
        assert server.stats["rejected"] == 0

    def test_request_shutdown_unblocks_serving(self):
        async def scenario():
            server = AsyncServiceServer(_loaded_session())
            await server.start()
            serve = asyncio.get_event_loop().create_task(
                server.serve_until_shutdown())
            await asyncio.sleep(0)
            server.request_shutdown()
            await asyncio.wait_for(serve, timeout=10)

        asyncio.run(scenario())

    def test_double_start_and_unstarted_address_rejected(self):
        async def scenario():
            server = AsyncServiceServer(_loaded_session())
            with pytest.raises(ValidationError):
                server.address
            await server.start()
            with pytest.raises(ValidationError):
                await server.start()
            await server.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("kwargs", [
        dict(max_pending=-1),
        dict(max_inflight=0),
        dict(workers=0),
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            AsyncServiceServer(_loaded_session(), **kwargs)

    def test_serve_async_reports_bound_address(self):
        async def scenario():
            addresses = []
            session = _loaded_session()

            async def shutdown_when_ready():
                while not addresses:
                    await asyncio.sleep(0.01)
                await _talk(addresses[0], [_line(op="shutdown")])

            await asyncio.wait_for(asyncio.gather(
                serve_async(session, ready=addresses.append),
                shutdown_when_ready()), timeout=30)
            assert addresses and addresses[0][1] > 0

        asyncio.run(scenario())


class TestTraffic:
    def test_concurrent_clients_get_correct_beliefs(self):
        session = _loaded_session()
        graph = session.service.snapshot("g").graph
        coupling = session.coupling("h")
        explicit = np.zeros((graph.num_nodes, 2))
        explicit[0] = [0.9, -0.9]
        direct = linbp(graph, coupling, explicit)

        async def scenario():
            server = AsyncServiceServer(session)
            address = await server.start()
            line = _query_line(limit=0, return_beliefs=True)
            try:
                return await asyncio.gather(
                    *[_talk(address, [line] * 3) for _ in range(8)])
            finally:
                await server.close()

        for responses in asyncio.run(scenario()):
            for raw in responses:
                body = json.loads(raw)
                assert body["ok"] is True
                for node, values in body["beliefs"]:
                    assert values == [float(v)
                                      for v in direct.beliefs[node]]

    def test_concurrent_connections_coalesce_in_the_micro_batcher(
            self, hold_first_batch):
        # The first query's batch is held until every connection's query
        # has entered the coalescer, so the other seven arrive while a
        # peer is in flight and wait out the window together.
        session = _loaded_session()
        batcher = session.service.batcher
        hold_first_batch(batcher, 8)

        async def scenario():
            server = AsyncServiceServer(session, workers=16)
            address = await server.start()
            try:
                return await asyncio.gather(
                    *[_talk(address, [_query_line()]) for _ in range(8)])
            finally:
                await server.close()

        for responses in asyncio.run(scenario()):
            assert json.loads(responses[0])["ok"] is True
        assert batcher.stats["requests"] == 8
        assert batcher.stats["largest_batch"] > 1

    def test_pipelined_responses_come_back_in_request_order(self):
        session = _loaded_session()

        async def scenario():
            server = AsyncServiceServer(session, max_inflight=2)
            address = await server.start()
            lines = []
            for index in range(12):
                if index % 2:
                    lines.append(_line(op="ping"))          # v0 text
                else:
                    lines.append(_line(v=1, op="ping"))     # v1 JSON
            try:
                return await _pipeline(address, lines)
            finally:
                await server.close()

        responses = asyncio.run(scenario())
        assert len(responses) == 12
        for index, raw in enumerate(responses):
            if index % 2:
                assert raw == "ok pong"
            else:
                assert json.loads(raw)["op"] == "ping"


class TestAdmissionControl:
    def test_overload_rejection_in_request_version(self):
        session = _loaded_session()

        async def scenario():
            server = AsyncServiceServer(session, max_pending=0)
            address = await server.start()
            try:
                return await _talk(address, [_line(v=1, op="ping"),
                                             _line(op="ping")]), server
            finally:
                await server.close()

        (v1, v0), server = asyncio.run(scenario())
        body = json.loads(v1)
        assert body["ok"] is False
        assert body["error"]["code"] == "overloaded"
        assert v0.startswith("error server overloaded")
        assert server.stats["rejected"] == 2
        assert server.stats["requests"] == 0
        # No request ever reached the session's service.
        assert session.service.stats()["queries"] == 0

    def test_admitted_traffic_flows_once_capacity_exists(self):
        session = _loaded_session()

        async def scenario():
            server = AsyncServiceServer(session, max_pending=1,
                                        max_inflight=1)
            address = await server.start()
            try:
                return await _talk(address, [_query_line()] * 5)
            finally:
                await server.close()

        responses = asyncio.run(scenario())
        # A closed-loop client never exceeds one in-flight request, so
        # max_pending=1 must not reject anything.
        assert all(json.loads(raw)["ok"] for raw in responses)


class TestLongLines:
    """A line over the 64 KiB stream limit is answered once and skipped."""

    @staticmethod
    def _big_load_graph() -> str:
        edges = [[node, 9000 + node] for node in range(9000)]
        return _line(v=1, op="load_graph", name="big", edges=edges)

    @pytest.mark.parametrize("writes", [1, 8])
    def test_oversized_line_then_stats_on_one_connection(self, writes):
        from repro.service.aserve import LINE_LIMIT

        big = self._big_load_graph()
        assert len(big) > LINE_LIMIT
        session = _loaded_session()

        async def scenario():
            server = AsyncServiceServer(session)
            address = await server.start()
            reader, writer = await asyncio.open_connection(*address)
            try:
                payload = (big + "\n").encode()
                step = -(-len(payload) // writes)
                for start in range(0, len(payload), step):
                    writer.write(payload[start:start + step])
                    await writer.drain()
                    if writes > 1:
                        await asyncio.sleep(0.01)
                writer.write((_line(v=1, op="stats") + "\n").encode())
                await writer.drain()
                replies = [
                    (await asyncio.wait_for(reader.readline(), timeout=30))
                    .decode().rstrip("\n") for _ in range(2)]
                # No third reply, and no EOF: the connection stays open.
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.readline(), timeout=0.3)
                writer.write((_line(op="ping") + "\n").encode())
                await writer.drain()
                pong = await asyncio.wait_for(reader.readline(), timeout=30)
                return replies, pong.decode().rstrip("\n")
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await server.close()

        (error, stats), pong = asyncio.run(scenario())
        assert error.startswith("error ")
        assert str(LINE_LIMIT) in error
        body = json.loads(stats)
        assert body["ok"] is True and body["op"] == "stats"
        assert pong == "ok pong"
        assert session.service.graph_names() == ["g"]
