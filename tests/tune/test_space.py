"""The config-space model: parameters, gates, validation, stable IDs."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.tune import (
    QUERY_KEYS,
    SERVICE_KEYS,
    ConfigSpace,
    Parameter,
    config_id,
    service_config_space,
)


class TestParameter:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            Parameter("x", "enum", (1,), 1)

    def test_rejects_default_outside_values(self):
        with pytest.raises(ValidationError, match="not.*among its values"):
            Parameter("x", "int", (1, 2), 3)

    def test_check_rejects_non_candidate_value(self):
        parameter = Parameter("x", "int", (1, 2), 1)
        reason = parameter.check(9, {"x": 9})
        assert "not a candidate value" in reason
        assert parameter.check(2, {"x": 2}) is None


class TestConfigSpace:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ConfigSpace([Parameter("x", "int", (1,), 1),
                         Parameter("x", "int", (2,), 2)])

    def test_default_config_is_total_and_valid(self):
        space = service_config_space()
        config = space.default_config()
        assert sorted(config) == sorted(space.names())
        assert space.validate(config) == []

    def test_unknown_and_missing_keys_are_defects(self):
        space = service_config_space()
        config = space.default_config()
        config.pop("window_ms")
        config["bogus"] = 1
        reasons = space.validate(config)
        assert any("unknown parameter" in r and "bogus" in r
                   for r in reasons)
        assert any("missing parameter 'window_ms'" in r for r in reasons)

    def test_one_factor_keeps_inadmissible_changes_with_reasons(self):
        space = service_config_space()
        baseline = dict(space.default_config(), precision="auto")
        # Under auto precision a float32 pin is inadmissible: the change
        # must still be *returned*, carrying the gate's reason.
        neighbours = space.one_factor_configs(baseline)
        pinned = [reason for name, value, _, reason in neighbours
                  if (name, value) == ("dtype", "float32")]
        assert len(pinned) == 1
        assert "auto precision" in pinned[0]
        admitted = [name for name, _, _, reason in neighbours
                    if reason is None]
        assert "dtype" not in admitted and "window_ms" in admitted

    def test_service_and_query_keys_cover_the_space(self):
        assert sorted(SERVICE_KEYS + QUERY_KEYS) == \
            sorted(service_config_space().names())

    def test_one_factor_changes_exactly_one_knob(self):
        space = service_config_space()
        baseline = space.default_config()
        for name, value, config, _ in space.one_factor_configs(baseline):
            changed = {key for key in config
                       if config[key] != baseline[key]}
            assert changed == {name}
            assert config[name] == value


class TestGates:
    def test_float32_requires_strict_precision(self):
        space = service_config_space()
        config = dict(space.default_config(), dtype="float32",
                      precision="auto")
        reasons = space.validate(config)
        assert any("auto precision" in r for r in reasons)
        config["precision"] = "strict"
        assert space.validate(config) == []


class TestConfigId:
    def test_stable_and_order_independent(self):
        config = service_config_space().default_config()
        shuffled = dict(reversed(list(config.items())))
        assert config_id(config) == config_id(shuffled)
        assert config_id(config).startswith("run-")

    def test_sensitive_to_every_key(self):
        space = service_config_space()
        baseline = space.default_config()
        seen = {config_id(baseline)}
        for _, _, config, _ in space.one_factor_configs(baseline):
            run_id = config_id(config)
            assert run_id not in seen, config
            seen.add(run_id)

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ValidationError):
            config_id({"x": [1, 2]})
