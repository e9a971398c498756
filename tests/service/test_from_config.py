"""PropagationService.from_config: strict, actionable artifact validation.

Every rejection must name the offending key and the accepted values —
the artifact is operator-edited JSON, so "invalid config" without a
pointer into the document is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import synthetic_residual_matrix
from repro.exceptions import ValidationError
from repro.graphs import random_graph
from repro.service import PropagationService, QuerySpec


def _artifact(**overrides):
    config = {
        "version": 1,
        "kind": "repro-serving-config",
        "service": {
            "window_ms": 2.0,
            "max_batch": 16,
            "result_cache_size": 256,
            "result_ttl_seconds": 300.0,
            "snapshot_history": 4,
        },
        "query": {"dtype": "float64", "precision": "strict",
                  "tolerance": 1e-8},
        "meta": {"run_id": "run-abc", "anything": ["goes", "here"]},
    }
    config.update(overrides)
    return config


class TestAcceptance:
    def test_full_artifact_builds_a_configured_service(self):
        service = PropagationService.from_config(_artifact())
        assert service.batcher.window_seconds == pytest.approx(0.002)
        assert service.batcher.max_batch == 16
        assert service.default_spec == QuerySpec(tolerance=1e-8)

    def test_window_ms_maps_to_seconds(self):
        artifact = _artifact()
        artifact["service"]["window_ms"] = 7.5
        service = PropagationService.from_config(artifact)
        assert service.batcher.window_seconds == pytest.approx(0.0075)

    def test_query_and_meta_and_kind_are_optional(self):
        artifact = {"version": 1, "service": {"snapshot_history": 4}}
        service = PropagationService.from_config(artifact)
        assert service.default_spec is None

    def test_partial_service_section_keeps_constructor_defaults(self):
        artifact = {"version": 1, "service": {"max_batch": 4}}
        service = PropagationService.from_config(artifact)
        assert service.batcher.max_batch == 4
        assert service.batcher.window_seconds == pytest.approx(0.002)

    def test_configured_service_answers_queries(self):
        graph = random_graph(40, 0.1, seed=1)
        coupling = synthetic_residual_matrix(epsilon=0.005)
        service = PropagationService.from_config(_artifact())
        service.register_graph("g", graph)
        explicit = np.zeros((40, coupling.num_classes))
        explicit[0, 0] = 0.1
        explicit[0, 1] = -0.1
        # spec=None → the artifact's query section answers.
        result = service.query("g", coupling, explicit, spec=None)
        assert result.beliefs.shape == (40, coupling.num_classes)


class TestRejection:
    def test_non_dict_config(self):
        with pytest.raises(ValidationError, match="JSON object"):
            PropagationService.from_config(["not", "a", "dict"])

    def test_unknown_top_level_key_names_accepted_keys(self):
        with pytest.raises(ValidationError) as excinfo:
            PropagationService.from_config(_artifact(bogus=1))
        assert "'bogus'" in str(excinfo.value)
        assert "'service'" in str(excinfo.value)

    def test_version_required(self):
        artifact = _artifact()
        del artifact["version"]
        with pytest.raises(ValidationError,
                           match="missing the required 'version'"):
            PropagationService.from_config(artifact)

    def test_future_version_rejected(self):
        with pytest.raises(ValidationError,
                           match="unsupported serving-config version 2"):
            PropagationService.from_config(_artifact(version=2))

    def test_boolean_version_rejected(self):
        # JSON true must not satisfy version == 1.
        with pytest.raises(ValidationError, match="unsupported"):
            PropagationService.from_config(_artifact(version=True))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            PropagationService.from_config(_artifact(kind="other-thing"))

    def test_service_section_required_and_must_be_object(self):
        with pytest.raises(ValidationError,
                           match="missing the required 'service'"):
            PropagationService.from_config({"version": 1})
        with pytest.raises(ValidationError, match="must be an object"):
            PropagationService.from_config(
                {"version": 1, "service": [1, 2]})

    @pytest.mark.parametrize("unknown", [
        {"batch_window": 2.0},
        # An artifact tuned when the service still had sharding knobs.
        {"shards": 1, "shard_method": "bfs", "shard_executor": "sequential",
         "incremental_repartition": True, "repartition_drift": None},
    ], ids=["typo", "removed-sharding-keys"])
    def test_unknown_service_key_names_accepted_keys(self, unknown):
        artifact = _artifact()
        artifact["service"].update(unknown)
        with pytest.raises(ValidationError) as excinfo:
            PropagationService.from_config(artifact)
        message = str(excinfo.value)
        for key in unknown:
            assert f"'{key}'" in message
        assert "'window_ms'" in message  # the fix is in the message

    @pytest.mark.parametrize("key,bad,accepted", [
        ("window_ms", -1.0, "a number >= 0"),
        ("window_ms", "fast", "a number >= 0"),
        ("max_batch", 0, "an integer >= 1"),
        ("max_batch", 2.5, "an integer >= 1"),
        ("max_batch", True, "an integer >= 1"),
        ("result_cache_size", -1, "an integer >= 0"),
        ("result_ttl_seconds", -5.0, "a number >= 0 or null"),
        ("snapshot_history", -1, "an integer >= 0"),
    ])
    def test_bad_value_names_key_and_accepted_values(self, key, bad,
                                                     accepted):
        artifact = _artifact()
        artifact["service"][key] = bad
        with pytest.raises(ValidationError) as excinfo:
            PropagationService.from_config(artifact)
        message = str(excinfo.value)
        assert f"'service.{key}'" in message
        assert accepted in message
        assert repr(bad) in message

    def test_query_section_unknown_key_rejected(self):
        artifact = _artifact()
        artifact["query"]["solver"] = "jacobi"
        with pytest.raises(ValidationError) as excinfo:
            PropagationService.from_config(artifact)
        message = str(excinfo.value)
        assert "'solver'" in message
        assert "'tolerance'" in message

    def test_query_section_bad_value_uses_spec_validation(self):
        artifact = _artifact()
        artifact["query"]["method"] = "jacobi"
        with pytest.raises(ValidationError, match="unknown method"):
            PropagationService.from_config(artifact)

    def test_meta_must_be_object_when_present(self):
        with pytest.raises(ValidationError, match="'meta'"):
            PropagationService.from_config(_artifact(meta="provenance"))


class TestDefaultSpec:
    def test_explicit_spec_still_wins_over_default_spec(self):
        service = PropagationService.from_config(_artifact())
        assert service._resolve_spec(None) is service.default_spec
        tight = QuerySpec(tolerance=1e-12)
        assert service._resolve_spec(tight) is tight

    def test_plain_construction_has_no_default_spec(self):
        service = PropagationService()
        assert service.default_spec is None
