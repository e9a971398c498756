"""QuerySpec: validation, hashing, batch keys, and the query() argument."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import synthetic_residual_matrix
from repro.exceptions import UnknownBackendError, ValidationError
from repro.graphs import random_graph
from repro.service import PropagationService, QuerySpec


def _workload(num_nodes: int = 30):
    graph = random_graph(num_nodes, 0.15, seed=3)
    coupling = synthetic_residual_matrix(epsilon=0.05)
    explicit = np.zeros((graph.num_nodes, 3))
    explicit[0] = [0.1, -0.05, -0.05]
    return graph, coupling, explicit


class TestConstruction:
    def test_defaults(self):
        spec = QuerySpec()
        assert spec.method == "linbp"
        assert spec.max_iterations == 100
        assert spec.tolerance == 1e-10
        assert spec.num_iterations is None
        assert spec.dtype == "float64"
        assert spec.precision == "strict"

    def test_frozen_and_hashable(self):
        spec = QuerySpec()
        with pytest.raises(AttributeError):
            spec.method = "sbp"
        assert spec == QuerySpec()
        assert hash(spec) == hash(QuerySpec())
        assert QuerySpec(method="sbp") != spec

    def test_dtype_canonicalised_to_name(self):
        assert QuerySpec(dtype=np.float32).dtype == "float32"
        assert QuerySpec(dtype="float32") == QuerySpec(dtype=np.float32)
        assert QuerySpec().numpy_dtype == np.dtype(np.float64)

    def test_numeric_coercion(self):
        spec = QuerySpec(max_iterations="50", tolerance="1e-8",
                         num_iterations="7")
        assert spec.max_iterations == 50
        assert spec.tolerance == 1e-8
        assert spec.num_iterations == 7

    @pytest.mark.parametrize("kwargs", [
        dict(method="bp"),
        dict(method="linbp", max_iterations=0),
        dict(tolerance=0.0),
        dict(tolerance=-1e-3),
        dict(num_iterations=0),
        dict(max_iterations="many"),
        dict(precision="fast"),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            QuerySpec(**kwargs)

    def test_unknown_dtype_raises_backend_error(self):
        with pytest.raises(UnknownBackendError):
            QuerySpec(dtype="int32")

    def test_family_and_echo(self):
        assert QuerySpec(method="linbp").family == "linbp"
        assert QuerySpec(method="linbp").echo is True
        assert QuerySpec(method="linbp*").family == "linbp"
        assert QuerySpec(method="linbp*").echo is False
        assert QuerySpec(method="sbp").family == "sbp"


class TestSolverParams:
    def test_linbp_key_carries_full_budget(self):
        spec = QuerySpec(num_iterations=5)
        assert spec.solver_params() == (
            "linbp", "float64", "strict", 100, 1e-10, 5)

    def test_sbp_key_ignores_iterative_budget(self):
        a = QuerySpec(method="sbp", max_iterations=50)
        b = QuerySpec(method="sbp", max_iterations=200, tolerance=1e-6)
        assert a.solver_params() == b.solver_params()

    def test_sbp_auto_key_keeps_tolerance(self):
        a = QuerySpec(method="sbp", precision="auto", tolerance=1e-3)
        b = QuerySpec(method="sbp", precision="auto", tolerance=1e-6)
        assert a.solver_params() != b.solver_params()

    def test_distinct_methods_never_share_keys(self):
        keys = {QuerySpec(method=m).solver_params()
                for m in ("linbp", "linbp*", "sbp")}
        assert len(keys) == 3


class TestFromRequest:
    def test_reads_only_spec_fields(self):
        spec = QuerySpec.from_request({
            "op": "query", "graph": "g", "beliefs": [[0, 0, 0.1]],
            "method": "linbp*", "num_iterations": 4, "dtype": "float32"})
        assert spec == QuerySpec(method="linbp*", num_iterations=4,
                                 dtype="float32")

    def test_missing_fields_keep_defaults(self):
        assert QuerySpec.from_request({"op": "query"}) == QuerySpec()

    def test_none_values_keep_defaults(self):
        assert QuerySpec.from_request({"method": None}) == QuerySpec()

    def test_malformed_field_raises_validation(self):
        with pytest.raises(ValidationError):
            QuerySpec.from_request({"tolerance": "soon"})


class TestSpecArgument:
    def test_unknown_kwarg_raises_type_error(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        with pytest.raises(TypeError):
            service.query("g", coupling, explicit, iterations=3)

    def test_non_spec_object_rejected(self):
        graph, coupling, explicit = _workload()
        service = PropagationService(window_seconds=0.0)
        service.register_graph("g", graph)
        for not_a_spec in ({"method": "linbp"}, "linbp*"):
            with pytest.raises(ValidationError):
                service.query("g", coupling, explicit, not_a_spec)
