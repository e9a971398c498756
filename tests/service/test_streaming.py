"""Streaming service behaviour: staleness bounds, history, mixed traffic.

Queries may pin snapshots up to ``max_staleness`` versions old (served
from the result cache's history probe), the history window keeps the
last few versions, and the mixed harness interleaves edge updates with
queries that must match a direct solve at their snapshot version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import linbp
from repro.coupling import synthetic_residual_matrix
from repro.engine import clear_plan_cache
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.service import PropagationService, QuerySpec, ServiceHarness


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _workload(num_nodes=40, seed=11):
    graph = random_graph(num_nodes, 0.12, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.05)
    rng = np.random.default_rng(seed)
    explicit = np.zeros((graph.num_nodes, 3))
    for node in rng.choice(graph.num_nodes, size=6, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        explicit[node] = [values[0], values[1], -values.sum()]
    return graph, coupling, explicit


def _missing_edges(graph, count, seed=29):
    rng = np.random.default_rng(seed)
    chosen = set()
    edges = []
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
        if u == v or (u, v) in chosen or (v, u) in chosen \
                or graph.adjacency[u, v] != 0:
            continue
        chosen.add((u, v))
        edges.append((u, v))
    return edges


class TestSnapshotHistory:
    def test_history_window_trims_oldest(self):
        graph, _, _ = _workload()
        service = PropagationService(window_seconds=0.0, snapshot_history=2)
        service.register_graph("g", graph)
        for edge in _missing_edges(graph, 4):
            service.update("g", new_edges=[edge])
        history = service.snapshot_history("g")
        assert [snapshot.version for snapshot in history] == [2, 3, 4]
        assert history[-1] is service.snapshot("g")

    def test_zero_history_keeps_only_current(self):
        graph, _, _ = _workload()
        service = PropagationService(window_seconds=0.0, snapshot_history=0)
        service.register_graph("g", graph)
        service.update("g", new_edges=[_missing_edges(graph, 1)[0]])
        assert [s.version for s in service.snapshot_history("g")] == [1]


class TestBoundedStaleness:
    def test_stale_read_serves_previous_version_from_cache(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        first = service.query("g", coupling, explicit)
        assert first.extra["snapshot_version"] == 0
        service.update("g", new_edges=[_missing_edges(graph, 1)[0]])
        stale = service.query("g", coupling, explicit, max_staleness=1)
        assert stale is first
        assert service.stats()["stale_hits"] == 1

    def test_fresh_read_recomputes_on_the_new_version(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.query("g", coupling, explicit)
        edge = _missing_edges(graph, 1)[0]
        snapshot = service.update("g", new_edges=[edge])
        fresh = service.query("g", coupling, explicit)
        assert fresh.extra["snapshot_version"] == 1
        direct = linbp(snapshot.graph, coupling, explicit)
        assert np.abs(fresh.beliefs - direct.beliefs).max() < 1e-10
        assert service.stats()["stale_hits"] == 0

    def test_staleness_bound_is_respected(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.query("g", coupling, explicit)
        for edge in _missing_edges(graph, 2):
            service.update("g", new_edges=[edge])
        # The version-0 result is two versions old now: a bound of 2
        # may serve it, a bound of 1 must not (and the probe prefers
        # the freshest cached version, so run the loose read first).
        loose = service.query("g", coupling, explicit, max_staleness=2)
        assert loose.extra["snapshot_version"] == 0
        assert service.stats()["stale_hits"] == 1
        bounded = service.query("g", coupling, explicit, max_staleness=1)
        assert bounded.extra["snapshot_version"] == 2

    def test_negative_staleness_rejected(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.query("g", coupling, explicit, max_staleness=-1)

    def test_stale_hit_requires_matching_params(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.query("g", coupling, explicit, QuerySpec(num_iterations=4))
        service.update("g", new_edges=[_missing_edges(graph, 1)[0]])
        other = service.query("g", coupling, explicit,
                              QuerySpec(num_iterations=6), max_staleness=1)
        assert other.extra["snapshot_version"] == 1
        assert service.stats()["stale_hits"] == 0


class TestMixedHarness:
    def test_run_mixed_interleaves_updates_and_queries(self):
        graph, coupling, explicit = _workload(num_nodes=80)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        edges = _missing_edges(graph, 2)
        spec = QuerySpec(num_iterations=6)
        requests = [
            dict(op="update", graph_name="g", new_edges=[edges[0]]),
            dict(graph_name="g", coupling=coupling,
                 explicit_residuals=explicit, spec=spec),
            dict(op="update", graph_name="g", new_edges=[edges[1]]),
            dict(graph_name="g", coupling=coupling,
                 explicit_residuals=explicit, spec=spec, max_staleness=1),
        ]
        run = ServiceHarness(service).run_mixed(requests, num_clients=1)
        assert len(run.results) == 4
        assert len(run.latencies) == 4
        assert run.results[0].version == 1
        assert run.results[2].version == 2
        assert run.percentile(50) <= run.p99
        graphs = {1: run.results[0].graph, 2: run.results[2].graph}
        for index in (1, 3):
            result = run.results[index]
            direct = linbp(graphs[result.extra["snapshot_version"]],
                           coupling, explicit, num_iterations=6)
            assert np.abs(result.beliefs - direct.beliefs).max() < 1e-10
        assert service.stats()["updates"] == 2

    def test_unknown_op_rejected(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            ServiceHarness(service).run_mixed(
                [dict(op="delete", graph_name="g")], num_clients=1)

    def test_percentile_validation(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        run = ServiceHarness(service).run_sequential(
            [dict(graph_name="g", coupling=coupling,
                  explicit_residuals=explicit)])
        assert run.percentile(100) == max(run.latencies)
        with pytest.raises(ValidationError):
            run.percentile(0)
        with pytest.raises(ValidationError):
            run.percentile(101)
