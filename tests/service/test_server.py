"""Tests for the ``repro serve`` line protocol over stdin and TCP."""

from __future__ import annotations

import io
import json
import socket

import pytest

from repro.service import ServiceSession, serve_stream


def _request(**fields) -> str:
    return json.dumps(fields)


@pytest.fixture
def session():
    return ServiceSession(window_seconds=0.0)


@pytest.fixture
def loaded_session(session):
    """A session with a 5-node chain graph and a 2-class coupling loaded."""
    for line in (
        _request(op="load_graph", name="g",
                 edges=[[0, 1], [1, 2], [2, 3], [3, 4]]),
        _request(op="load_coupling", name="h",
                 stochastic=[[0.8, 0.2], [0.2, 0.8]], epsilon=0.3,
                 classes=["left", "right"]),
    ):
        response, keep_running = session.handle_line(line)
        assert response.startswith("ok"), response
        assert keep_running
    return session


class TestHandleLine:
    def test_load_graph_reports_shape_and_version(self, session):
        response, _ = session.handle_line(
            _request(op="load_graph", name="g", edges=[[0, 1], [1, 2, 0.5]]))
        assert response == "ok graph name=g nodes=3 edges=2 version=0"

    def test_load_coupling_residual_form(self, session):
        response, _ = session.handle_line(
            _request(op="load_coupling", name="h",
                     residual=[[0.1, -0.1], [-0.1, 0.1]]))
        assert response == "ok coupling name=h classes=2"

    def test_query_reports_labels(self, loaded_session):
        response, _ = loaded_session.handle_line(
            _request(op="query", graph="g", coupling="h",
                     beliefs=[[0, 0, 0.1], [4, 1, 0.1]]))
        assert response.startswith("ok query method=LinBP")
        assert "converged=true" in response
        assert "0:left" in response and "4:right" in response

    def test_query_can_return_raw_beliefs(self, loaded_session):
        response, _ = loaded_session.handle_line(
            _request(op="query", graph="g", coupling="h", method="sbp",
                     beliefs=[[0, 0, 0.1]], return_beliefs=True))
        assert response.startswith("ok query method=SBP")
        assert "beliefs=0:0.1|0" in response

    def test_query_limit_truncates(self, loaded_session):
        response, _ = loaded_session.handle_line(
            _request(op="query", graph="g", coupling="h",
                     beliefs=[[0, 0, 0.1], [4, 1, 0.1]], limit=1))
        assert "..." in response

    def test_view_update_read_view_roundtrip(self, loaded_session):
        response, _ = loaded_session.handle_line(
            _request(op="view", graph="g", name="w", coupling="h",
                     method="sbp", beliefs=[[0, 0, 0.1]]))
        assert response.startswith("ok view graph=g name=w method=SBP")
        response, _ = loaded_session.handle_line(
            _request(op="update", graph="g", edges=[[0, 4]]))
        assert response == "ok update graph=g version=1"
        response, _ = loaded_session.handle_line(
            _request(op="read_view", graph="g", name="w"))
        assert response.startswith("ok read_view graph=g name=w beliefs=")

    def test_update_with_beliefs_uses_coupling_classes(self, loaded_session):
        loaded_session.handle_line(
            _request(op="view", graph="g", name="w", coupling="h",
                     beliefs=[[0, 0, 0.1]]))
        response, _ = loaded_session.handle_line(
            _request(op="update", graph="g", coupling="h",
                     beliefs=[[2, 1, 0.1]]))
        assert response == "ok update graph=g version=1"

    def test_stats_line(self, loaded_session):
        loaded_session.handle_line(
            _request(op="query", graph="g", coupling="h",
                     beliefs=[[0, 0, 0.1]]))
        response, _ = loaded_session.handle_line(_request(op="stats"))
        assert response.startswith("ok stats queries=1")
        assert "cache_hits=" in response

    def test_update_beliefs_infers_classes_from_views(self, loaded_session):
        # A second coupling with a different class count is loaded; the
        # graph's views (built on the 2-class coupling) break the tie, so
        # the update needs no explicit 'coupling' field.
        loaded_session.handle_line(
            _request(op="load_coupling", name="h3",
                     residual=[[0.2, -0.1, -0.1], [-0.1, 0.2, -0.1],
                               [-0.1, -0.1, 0.2]]))
        loaded_session.handle_line(
            _request(op="view", graph="g", name="w", coupling="h",
                     beliefs=[[0, 0, 0.1]]))
        response, _ = loaded_session.handle_line(
            _request(op="update", graph="g", beliefs=[[2, 1, 0.1]]))
        assert response == "ok update graph=g version=1"

    def test_unexpected_handler_error_yields_one_error_line(self, session,
                                                            monkeypatch):
        def explode():
            raise RuntimeError("boom")

        monkeypatch.setattr(session.service, "stats", explode)
        response, keep_running = session.handle_line(_request(op="stats"))
        assert response == "error internal: RuntimeError: boom"
        assert keep_running

    def test_ping_and_shutdown(self, session):
        assert session.handle_line(_request(op="ping")) == ("ok pong", True)
        assert session.handle_line(_request(op="shutdown")) == ("ok bye", False)

    def test_protocol_errors_are_single_lines(self, loaded_session):
        cases = [
            "not json",
            json.dumps(["a", "list"]),
            _request(op="no_such_op"),
            _request(op="query", graph="nope", coupling="h", beliefs=[]),
            _request(op="query", graph="g", coupling="nope", beliefs=[]),
            _request(op="query", graph="g", coupling="h",
                     beliefs=[[99, 0, 0.1]]),
            _request(op="load_coupling", name="x"),
            _request(op="query", graph="g"),
        ]
        for line in cases:
            response, keep_running = loaded_session.handle_line(line)
            assert response.startswith("error"), (line, response)
            assert "\n" not in response
            assert keep_running


class TestStreamTransport:
    def test_serve_stream_until_shutdown(self, tmp_path):
        lines = "\n".join([
            _request(op="load_graph", name="g", edges=[[0, 1], [1, 2]]),
            _request(op="load_coupling", name="h",
                     stochastic=[[0.9, 0.1], [0.1, 0.9]], epsilon=0.2),
            "",  # blank lines are ignored
            _request(op="query", graph="g", coupling="h",
                     beliefs=[[0, 0, 0.1]]),
            _request(op="shutdown"),
            _request(op="ping"),  # never reached
        ])
        out = io.StringIO()
        handled = serve_stream(ServiceSession(window_seconds=0.0),
                               io.StringIO(lines), out)
        responses = out.getvalue().splitlines()
        assert handled == 4
        assert responses[0].startswith("ok graph")
        assert responses[-1] == "ok bye"

    def test_serve_stream_stops_at_eof(self):
        out = io.StringIO()
        handled = serve_stream(ServiceSession(window_seconds=0.0),
                               io.StringIO(_request(op="ping") + "\n"), out)
        assert handled == 1
        assert out.getvalue() == "ok pong\n"


class TestTCPTransport:
    """The protocol over :class:`AsyncServiceServer` (``tcp_server``)."""

    def _client(self, address):
        connection = socket.create_connection(address, timeout=10)
        return connection, connection.makefile("rw", encoding="utf-8")

    def test_roundtrip_over_tcp(self, tcp_server):
        connection, stream = self._client(tcp_server)
        try:
            stream.write(_request(op="load_graph", name="g",
                                  edges=[[0, 1], [1, 2]]) + "\n")
            stream.write(_request(op="load_coupling", name="h",
                                  stochastic=[[0.9, 0.1], [0.1, 0.9]],
                                  epsilon=0.2) + "\n")
            stream.write(_request(op="query", graph="g", coupling="h",
                                  beliefs=[[0, 0, 0.1]]) + "\n")
            stream.flush()
            assert stream.readline().startswith("ok graph")
            assert stream.readline().startswith("ok coupling")
            assert stream.readline().startswith("ok query method=LinBP")
        finally:
            connection.close()

    def test_state_is_shared_across_connections(self, tcp_server):
        first, first_stream = self._client(tcp_server)
        try:
            first_stream.write(_request(op="load_graph", name="g",
                                        edges=[[0, 1]]) + "\n")
            first_stream.flush()
            assert first_stream.readline().startswith("ok graph")
        finally:
            first.close()
        second, second_stream = self._client(tcp_server)
        try:
            second_stream.write(_request(op="load_coupling", name="h",
                                         stochastic=[[0.9, 0.1], [0.1, 0.9]],
                                         epsilon=0.2) + "\n")
            second_stream.write(_request(op="query", graph="g", coupling="h",
                                         beliefs=[[0, 0, 0.1]]) + "\n")
            second_stream.flush()
            assert second_stream.readline().startswith("ok coupling")
            assert second_stream.readline().startswith("ok query")
        finally:
            second.close()
