"""Service-layer dtype/precision routing: params keys and extras."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import linbp
from repro.coupling import synthetic_residual_matrix
from repro.engine import clear_plan_cache
from repro.exceptions import UnknownBackendError, ValidationError
from repro.graphs import random_graph
from repro.service import PropagationService, QuerySpec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _workload(num_nodes: int = 40, seed: int = 11):
    graph = random_graph(num_nodes, 0.12, seed=7)
    coupling = synthetic_residual_matrix(epsilon=0.05)
    rng = np.random.default_rng(seed)
    explicit = np.zeros((graph.num_nodes, 3))
    for node in rng.choice(graph.num_nodes, size=6, replace=False):
        values = rng.uniform(-0.1, 0.1, size=2)
        explicit[node] = [values[0], values[1], -values.sum()]
    return graph, coupling, explicit


def _service(graph, **kwargs):
    service = PropagationService(window_seconds=0.0, **kwargs)
    service.register_graph("g", graph)
    return service


class TestStrictRouting:
    def test_default_query_is_strict_float64(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        result = service.query("g", coupling, explicit)
        assert result.beliefs.dtype == np.float64
        sequential = linbp(graph, coupling, explicit)
        assert np.abs(result.beliefs - sequential.beliefs).max() < 1e-10

    def test_strict_float32_runs_narrow_and_stays_close(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        narrow = service.query("g", coupling, explicit,
                               QuerySpec(dtype="float32"))
        exact = service.query("g", coupling, explicit)
        assert narrow.beliefs.dtype == np.float32
        assert np.abs(exact.beliefs
                      - narrow.beliefs.astype(np.float64)).max() < 1e-5

    def test_dtypes_do_not_share_cached_results(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        exact = service.query("g", coupling, explicit)
        narrow = service.query("g", coupling, explicit,
                               QuerySpec(dtype=np.float32))
        # A float32 answer must never be served for a float64 request.
        assert exact.beliefs.dtype == np.float64
        assert narrow.beliefs.dtype == np.float32

    def test_unknown_dtype_and_precision_rejected(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        with pytest.raises(UnknownBackendError):
            service.query("g", coupling, explicit,
                          QuerySpec(dtype="int32"))
        with pytest.raises(ValidationError):
            service.query("g", coupling, explicit,
                          QuerySpec(precision="fast"))


class TestAutoRouting:
    def test_auto_certifies_float32_at_loose_tolerance(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        result = service.query("g", coupling, explicit,
                               QuerySpec(precision="auto",
                                         tolerance=1e-3))
        payload = result.extra["precision"]
        assert payload["certified"] is True
        assert payload["dtype"] == "float32"
        assert result.beliefs.dtype == np.float32

    def test_auto_falls_back_to_float64_at_default_tolerance(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        result = service.query("g", coupling, explicit,
                               QuerySpec(precision="auto"))
        payload = result.extra["precision"]
        assert payload["certified"] is False
        assert payload["dtype"] == "float64"
        assert result.beliefs.dtype == np.float64
        exact = service.query("g", coupling, explicit)
        assert np.abs(result.beliefs - exact.beliefs).max() < 1e-9

    def test_auto_sbp_attaches_decision(self):
        graph, coupling, explicit = _workload()
        service = _service(graph)
        result = service.query("g", coupling, explicit,
                               QuerySpec(method="sbp", precision="auto",
                                         tolerance=1e-3))
        payload = result.extra["precision"]
        assert payload["certified"] is True
        assert result.beliefs.dtype == np.float32
