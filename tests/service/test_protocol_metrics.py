"""The telemetry wire surface: the ``metrics`` op, ``stats`` parity.

Three contracts pinned here:

* the v1 ``metrics`` op returns the merged registry snapshot (global
  telemetry plus the service's always-on request counters) and, on
  request, the Prometheus text exposition;
* the v0 ``stats`` line stays **byte-identical** to the pre-telemetry
  releases even though its counters now live on a metrics registry;
* ``PropagationService.stats()`` keeps its exact dict shape — the
  differential test below compares against a hand-pinned expectation,
  not against the implementation.
"""

from __future__ import annotations

import json

import numpy as np

from repro.coupling import homophily_matrix
from repro.graphs import chain_graph
from repro.service import PropagationService, ServiceSession


def _line(**request) -> str:
    return json.dumps(request)


def _loaded_session() -> ServiceSession:
    session = ServiceSession(window_seconds=0.0)
    response, _ = session.handle_line(_line(
        op="load_graph", name="g", edges=[[0, 1], [1, 2], [2, 3]]))
    assert response.startswith("ok")
    response, _ = session.handle_line(_line(
        op="load_coupling", name="h",
        stochastic=[[0.9, 0.1], [0.1, 0.9]], epsilon=0.05))
    assert response.startswith("ok")
    return session


def _query(session: ServiceSession, **extra) -> str:
    request = dict(op="query", graph="g", coupling="h",
                   beliefs=[[0, 0, 0.9], [0, 1, -0.9]])
    request.update(extra)
    response, _ = session.handle_line(_line(**request))
    return response


class TestMetricsOp:
    def test_v1_returns_merged_snapshot(self):
        session = _loaded_session()
        _query(session)
        body = json.loads(session.handle_line(
            _line(v=1, op="metrics"))[0])
        assert body["ok"] is True
        assert body["op"] == "metrics"
        metrics = body["metrics"]
        # Global telemetry and the service's always-on registry, merged.
        assert "repro_engine_sweeps_total" in metrics
        assert "repro_service_queries_total" in metrics
        queries = metrics["repro_service_queries_total"]["series"]
        assert queries == [{"labels": {"graph": "g"}, "value": 1.0}]
        assert body["names"] == len(metrics)
        assert body["series"] == sum(
            len(entry["series"]) for entry in metrics.values())

    def test_v1_prometheus_format_on_request(self):
        session = _loaded_session()
        _query(session)
        body = json.loads(session.handle_line(
            _line(v=1, op="metrics", format="prometheus"))[0])
        text = body["prometheus"]
        assert "# TYPE repro_service_queries_total counter" in text
        assert 'repro_service_queries_total{graph="g"} 1' in text
        plain = json.loads(session.handle_line(_line(v=1, op="metrics"))[0])
        assert "prometheus" not in plain

    def test_v0_renders_a_one_line_summary(self):
        session = _loaded_session()
        response, keep_running = session.handle_line(_line(op="metrics"))
        assert keep_running
        assert response.startswith("ok metrics names=")
        assert " series=" in response and " enabled=" in response

    def test_unknown_op_error_code_is_stable(self):
        session = _loaded_session()
        body = json.loads(session.handle_line(_line(v=1, op="metricz"))[0])
        assert body["ok"] is False
        assert body["error"]["code"] == "unknown-op"
        response, _ = session.handle_line(_line(op="metricz"))
        assert response == "error unknown op 'metricz'"


class TestStatsParity:
    def test_v0_stats_line_is_byte_stable(self):
        session = _loaded_session()
        assert _query(session).startswith("ok query")
        assert _query(session).startswith("ok query")  # result-cache hit
        response, _ = session.handle_line(_line(op="stats"))
        assert response == ("ok stats queries=2 updates=0 batches=1 "
                            "coalesced_requests=0 largest_batch=1 "
                            "cache_hits=1 cache_size=1")

    def test_v1_stats_carries_the_full_dict(self):
        session = _loaded_session()
        _query(session)
        body = json.loads(session.handle_line(_line(v=1, op="stats"))[0])
        assert body["ok"] is True
        assert body["stats"]["queries"] == 1
        assert body["stats"]["coalescer"]["batches"] == 1


class TestStatsShapeDifferential:
    def test_counters_match_pinned_shape_after_traffic(self):
        service = PropagationService(window_seconds=0.0,
                                     result_cache_size=8)
        graph = chain_graph(6)
        coupling = homophily_matrix(epsilon=0.2)
        explicit = np.zeros((6, 2))
        explicit[0] = [0.1, -0.1]
        service.register_graph("g", graph)
        service.query("g", coupling, explicit)
        service.query("g", coupling, explicit)  # cache hit
        service.update("g", new_edges=[(3, 5)])
        service.query("g", coupling, explicit, max_staleness=1)
        stats = service.stats()
        # Top-level counters are plain ints with the pre-telemetry keys.
        assert stats["queries"] == 3
        assert stats["updates"] == 1
        assert stats["stale_hits"] == 1
        assert isinstance(stats["queries"], int)
        assert isinstance(stats["updates"], int)
        assert isinstance(stats["stale_hits"], int)
        assert stats["graphs"] == {"g": 1}
        assert set(stats) == {
            "queries", "updates", "stale_hits", "graphs", "views",
            "coalescer", "result_cache", "plan_cache"}
        assert set(stats["coalescer"]) == {
            "requests", "batches", "coalesced_requests", "largest_batch"}

    def test_counters_survive_obs_disabled(self):
        from repro.obs import set_obs_enabled

        service = PropagationService(window_seconds=0.0)
        graph = chain_graph(4)
        coupling = homophily_matrix(epsilon=0.2)
        explicit = np.zeros((4, 2))
        explicit[0] = [0.1, -0.1]
        service.register_graph("g", graph)
        try:
            set_obs_enabled(False)
            service.query("g", coupling, explicit)
            service.update("g", new_edges=[(1, 3)])
        finally:
            set_obs_enabled(True)
        stats = service.stats()
        # stats() is contract state, not telemetry: the always-on
        # registry keeps counting with the global switch off.
        assert stats["queries"] == 1
        assert stats["updates"] == 1
