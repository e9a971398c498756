"""Tests for the propagation service: snapshots, views, caches, equivalence.

The coalescer's core guarantee is exercised here: N concurrent
single-query requests through the service produce beliefs identical (to
the engine's 1e-10 equivalence bar) to N sequential ``linbp()`` /
``sbp()`` calls, while actually being dispatched as shared batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IncrementalLinBP, UpdateEvent, linbp, sbp
from repro.core.sbp import SBP
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


def _workload(num_queries: int, num_nodes: int = 40, seed: int = 11):
    graph = random_graph(num_nodes, 0.12, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.05)
    rng = np.random.default_rng(seed)
    explicit_list = []
    for _ in range(num_queries):
        explicit = np.zeros((graph.num_nodes, 3))
        for node in rng.choice(graph.num_nodes, size=6, replace=False):
            values = rng.uniform(-0.1, 0.1, size=2)
            explicit[node] = [values[0], values[1], -values.sum()]
        explicit_list.append(explicit)
    return graph, coupling, explicit_list


class TestConcurrentEquivalence:
    """N concurrent service queries == N sequential solver calls."""

    def test_concurrent_linbp_queries_match_sequential_to_1e10(self):
        graph, coupling, explicit_list = _workload(16)
        service = PropagationService(window_seconds=0.25, max_batch=16)
        service.register_graph("g", graph)
        harness = ServiceHarness(service)
        requests = [dict(graph_name="g", coupling=coupling,
                         explicit_residuals=explicit)
                    for explicit in explicit_list]
        run = harness.run_concurrent(requests, num_clients=16)
        for explicit, result in zip(explicit_list, run.results):
            sequential = linbp(graph, coupling, explicit)
            assert np.abs(result.beliefs - sequential.beliefs).max() < 1e-10
            assert result.iterations == sequential.iterations
            assert result.converged == sequential.converged
        # The requests must actually have been coalesced, not serialised.
        assert service.stats()["coalescer"]["largest_batch"] > 1

    def test_concurrent_sbp_queries_match_sequential_to_1e10(self):
        graph, coupling, explicit_list = _workload(1)
        # Shared labeled set (same non-zero rows), distinct belief values —
        # the stacked-block regime of run_sbp_batch.
        explicit_list = [explicit_list[0] * scale
                         for scale in np.linspace(0.5, 2.0, 12)]
        service = PropagationService(window_seconds=0.25, max_batch=12)
        service.register_graph("g", graph)
        harness = ServiceHarness(service)
        requests = [dict(graph_name="g", coupling=coupling,
                         explicit_residuals=explicit,
                         spec=QuerySpec(method="sbp"))
                    for explicit in explicit_list]
        run = harness.run_concurrent(requests, num_clients=12)
        for explicit, result in zip(explicit_list, run.results):
            sequential = sbp(graph, coupling, explicit)
            assert np.abs(result.beliefs - sequential.beliefs).max() < 1e-10
            assert result.iterations == sequential.iterations
        assert service.stats()["coalescer"]["largest_batch"] > 1

    def test_linbp_star_method_routes_without_echo(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        result = service.query("g", coupling, explicit_list[0],
                               QuerySpec(method="linbp*"))
        assert result.method == "LinBP*"


class TestSnapshots:
    def test_register_and_version_bumps(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        snapshot = service.register_graph("g", graph)
        assert snapshot.version == 0
        after = service.update("g", new_edges=[(0, 1, 0.5)])
        assert after.version == 1
        assert service.snapshot("g").version == 1
        # The old snapshot object is untouched (in-flight consistency).
        assert snapshot.version == 0
        assert snapshot.graph is graph
        assert after.graph is not graph

    def test_duplicate_and_unknown_names_rejected(self):
        graph, _, _ = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.snapshot("nope")
        with pytest.raises(ValidationError):
            service.update("nope", new_edges=[(0, 1)])
        service.unregister_graph("g")
        with pytest.raises(ValidationError):
            service.snapshot("g")

    def test_update_requires_a_mutation(self):
        graph, _, _ = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.update("g")
        with pytest.raises(ValidationError):
            service.update("g", new_edges=[])

    def test_queries_after_update_see_the_new_graph(self):
        graph, coupling, explicit_list = _workload(1, num_nodes=20)
        explicit = explicit_list[0]
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        before = service.query("g", coupling, explicit)
        service.update("g", new_edges=[(0, 11), (1, 13)])
        after = service.query("g", coupling, explicit)
        fresh = linbp(service.snapshot("g").graph, coupling, explicit)
        assert np.abs(after.beliefs - fresh.beliefs).max() < 1e-10
        assert not np.allclose(before.beliefs, after.beliefs)


class TestMaintainedViews:
    def test_sbp_view_follows_label_updates(self):
        graph, coupling, explicit_list = _workload(1)
        explicit = explicit_list[0]
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        initial = service.create_view("g", "v", coupling, explicit)
        assert initial.method == "SBP"
        new_labels = {3: np.array([0.1, -0.05, -0.05])}
        service.update("g", new_beliefs=new_labels)
        maintained = service.view_result("g", "v")
        merged = explicit.copy()
        merged[3] = new_labels[3]
        fresh = sbp(graph, coupling, merged)
        assert np.abs(maintained.beliefs - fresh.beliefs).max() < 1e-10
        # The hook-fed repair accounting is visible through stats().
        view_stats = service.stats()["views"]["g"]["v"]
        assert view_stats["method"] == "sbp"
        assert view_stats["nodes_updated_total"] >= 1

    def test_sbp_view_follows_edge_updates(self):
        graph, coupling, explicit_list = _workload(1)
        explicit = explicit_list[0]
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "v", coupling, explicit)
        snapshot = service.update("g", new_edges=[(0, 21), (5, 30)])
        maintained = service.view_result("g", "v")
        fresh = sbp(snapshot.graph, coupling, explicit)
        assert np.abs(maintained.beliefs - fresh.beliefs).max() < 1e-10

    def test_views_share_the_snapshot_graph_object_after_edge_update(self):
        # The successor graph is built once per update; views repairing
        # against the same object is what lets the engine's id()-keyed
        # plan caches serve view repairs and one-shot queries alike.
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "sbp-view", coupling, explicit_list[0])
        service.create_view("g", "linbp-view", coupling, explicit_list[0],
                            method="linbp")
        snapshot = service.update("g", new_edges=[(0, 21)])
        entry = service._entry("g")
        for view in entry.views.values():
            assert view.runner.graph is snapshot.graph

    def test_linbp_view_follows_updates(self):
        graph, coupling, explicit_list = _workload(1)
        explicit = explicit_list[0]
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "v", coupling, explicit, method="linbp")
        snapshot = service.update("g", new_edges=[(2, 17)])
        maintained = service.view_result("g", "v")
        fresh = linbp(snapshot.graph, coupling, explicit, max_iterations=200)
        assert np.abs(maintained.beliefs - fresh.beliefs).max() < 1e-8

    def test_rejected_update_leaves_views_and_version_untouched(self):
        # A mixed update whose edges are valid but whose beliefs are
        # malformed must be rejected *atomically*: no view may keep the
        # edge repair, and the snapshot version must not move.
        graph, coupling, explicit_list = _workload(1)
        explicit = explicit_list[0]
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "v", coupling, explicit)
        before = service.view_result("g", "v")
        with pytest.raises(ValidationError):
            service.update("g", new_edges=[(0, 21)],
                           new_beliefs={999: np.array([0.1, -0.05, -0.05])})
        with pytest.raises(ValidationError):
            service.update("g", new_edges=[(0, 21)],
                           new_beliefs={3: np.array([0.1, -0.1])})  # wrong k
        assert service.snapshot("g").version == 0
        assert service.snapshot("g").graph is graph
        after = service.view_result("g", "v")
        assert np.array_equal(after.beliefs, before.beliefs)
        # The rejected edge never reached the view: a retry applies it once.
        snapshot = service.update("g", new_edges=[(0, 21)])
        maintained = service.view_result("g", "v")
        fresh = sbp(snapshot.graph, coupling, explicit)
        assert np.abs(maintained.beliefs - fresh.beliefs).max() < 1e-10

    def test_view_name_collision_and_unknown_view(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "v", coupling, explicit_list[0])
        with pytest.raises(ValidationError):
            service.create_view("g", "v", coupling, explicit_list[0])
        with pytest.raises(ValidationError):
            service.view_result("g", "nope")
        assert service.view_names("g") == ["v"]


class TestResultCache:
    def test_identical_request_hits_the_cache(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        first = service.query("g", coupling, explicit_list[0])
        second = service.query("g", coupling, explicit_list[0])
        assert second is first
        assert service.stats()["result_cache"]["hits"] == 1

    def test_update_invalidates_cached_results(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        first = service.query("g", coupling, explicit_list[0])
        service.update("g", new_edges=[(0, 5, 0.5)])
        second = service.query("g", coupling, explicit_list[0])
        assert second is not first

    def test_ttl_expiry_forces_recompute(self):
        now = [0.0]
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0,
                                     result_ttl_seconds=60.0,
                                     clock=lambda: now[0])
        service.register_graph("g", graph)
        first = service.query("g", coupling, explicit_list[0])
        now[0] = 59.0
        assert service.query("g", coupling, explicit_list[0]) is first
        now[0] = 61.0
        recomputed = service.query("g", coupling, explicit_list[0])
        assert recomputed is not first
        assert np.abs(recomputed.beliefs - first.beliefs).max() < 1e-12

    def test_different_parameters_do_not_share_results(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        a = service.query("g", coupling, explicit_list[0],
                          QuerySpec(num_iterations=3))
        b = service.query("g", coupling, explicit_list[0],
                          QuerySpec(num_iterations=5))
        assert a is not b
        assert a.iterations == 3 and b.iterations == 5

    def test_sbp_results_ignore_iterative_solver_parameters(self):
        # Single-pass SBP has no iteration budget; requests differing only
        # in the LinBP-family knobs must share one cached result.
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        a = service.query("g", coupling, explicit_list[0],
                          QuerySpec(method="sbp", max_iterations=50))
        b = service.query("g", coupling, explicit_list[0],
                          QuerySpec(method="sbp", max_iterations=200,
                                    tolerance=1e-6))
        assert b is a


class TestValidation:
    def test_unknown_method_rejected(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.query("g", coupling, explicit_list[0],
                          QuerySpec(method="bp"))
        with pytest.raises(ValidationError):
            service.create_view("g", "v", coupling, explicit_list[0],
                                method="magic")

    def test_shape_mismatch_rejected(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(ValidationError):
            service.query("g", coupling, explicit_list[0][:-1])


class TestNonFiniteBeliefs:
    """NaN and ±Infinity are refused before any cache probe, batch or
    repair, and a refused call leaves the service as it was."""

    @pytest.fixture
    def service(self):
        graph, coupling, explicit_list = _workload(1)
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        service.create_view("g", "base", coupling, explicit_list[0])
        return service, coupling, explicit_list[0]

    @staticmethod
    def _state(service):
        stats = service.stats()
        return (service.snapshot("g").version, service.view_names("g"),
                stats["queries"], stats["result_cache"]["size"],
                service.view_result("g", "base").beliefs.copy())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_query_rejects_and_names_the_first_cell(self, service, value):
        service, coupling, explicit = service
        before = self._state(service)
        bad = explicit.copy()
        bad[5, 2] = value
        bad[9, 0] = value
        with pytest.raises(ValidationError,
                           match=r"node 5 class 2 is not finite"):
            service.query("g", coupling, bad)
        after = self._state(service)
        assert after[:4] == before[:4]
        assert np.array_equal(after[4], before[4])

    def test_create_view_rejects_without_creating_it(self, service):
        service, coupling, explicit = service
        bad = explicit.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ValidationError, match="node 3 class 1"):
            service.create_view("g", "broken", coupling, bad)
        assert service.view_names("g") == ["base"]
        assert service.snapshot("g").version == 0

    @pytest.mark.parametrize("as_mapping", [False, True])
    def test_update_rejects_without_bumping_the_version(self, service,
                                                        as_mapping):
        service, coupling, explicit = service
        before = self._state(service)
        bad = np.zeros_like(explicit)
        bad[7] = [0.1, -np.inf, 0.0]
        new_beliefs = {7: bad[7]} if as_mapping else bad
        with pytest.raises(ValidationError, match="node 7 class 1"):
            service.update("g", new_beliefs=new_beliefs, new_edges=[(0, 1)])
        after = self._state(service)
        assert after[:4] == before[:4]
        assert np.array_equal(after[4], before[4])


class TestUpdateHooks:
    """The core runners' hooks that the service's accounting builds on."""

    def test_sbp_hooks_fire_per_mutation(self):
        graph, coupling, explicit_list = _workload(1)
        runner = SBP(graph, coupling)
        events = []
        runner.add_update_hook(events.append)
        runner.run(explicit_list[0])
        runner.add_explicit_beliefs({2: np.array([0.1, -0.05, -0.05])})
        runner.add_edges([(0, 9)])
        kinds = [event.kind for event in events]
        assert kinds == ["run", "explicit_beliefs", "edges"]
        assert all(isinstance(event, UpdateEvent) for event in events)
        assert events[1].nodes_updated >= 1

    def test_incremental_linbp_hooks_fire_per_mutation(self):
        graph, coupling, explicit_list = _workload(1)
        runner = IncrementalLinBP(graph, coupling)
        events = []
        runner.add_update_hook(events.append)
        runner.run(explicit_list[0])
        runner.add_explicit_beliefs({2: np.array([0.1, -0.05, -0.05])})
        runner.add_edges([(0, 9)])
        assert [event.kind for event in events] == \
            ["run", "explicit_beliefs", "edges"]
        runner.remove_update_hook(lambda event: None)  # unknown hook: no-op
