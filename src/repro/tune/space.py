"""The serving-config knob space: typed parameters, stable run IDs.

The serving system has several interacting knobs — micro-batch window,
cache sizes, TTLs, convergence tolerance.  This module turns that
implicit knob sprawl into an explicit, typed **configuration space**:

* :class:`Parameter` — one knob: a name, a kind (categorical / int /
  float), the discrete candidate values the tuner may try and a
  default.
* :class:`ConfigSpace` — an ordered collection of parameters with the
  operations the ablation runner and the autotuner need: the default
  configuration, validation, the one-factor neighbourhood of a baseline
  (every single-knob change), and deterministic config hashing.
* :func:`config_id` — the stable run identifier: the SHA-1 of the
  canonical JSON encoding of a configuration.  Content-addressed and
  time-free, so the same configuration gets the same run ID in every
  process on every host — reports from different sweeps can be joined
  on it.
* :func:`service_config_space` — the concrete knob space of
  :class:`~repro.service.service.PropagationService` plus the per-query
  solver tolerance.

The space is deliberately *discrete*: every parameter enumerates the
handful of values worth trying, because the tuner's unit of work — one
closed-loop harness drive — is far too expensive for continuous
optimisation, and the interesting decisions ("does coalescing pay off
here at all?") are categorical anyway.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ValidationError

__all__ = [
    "Parameter",
    "ConfigSpace",
    "config_id",
    "service_config_space",
    "SERVICE_KEYS",
    "QUERY_KEYS",
]

@dataclass(frozen=True)
class Parameter:
    """One knob of the configuration space.

    ``values`` is the full candidate list *including* the default; the
    kind is descriptive (it drives validation messages and the report's
    rendering) — sweeps are always over the discrete ``values``.
    """

    name: str
    kind: str  # "categorical" | "int" | "float"
    values: Tuple[object, ...]
    default: object
    help: str = ""

    def __post_init__(self):
        if self.kind not in ("categorical", "int", "float"):
            raise ValidationError(
                f"parameter {self.name!r}: unknown kind {self.kind!r} "
                "(expected 'categorical', 'int' or 'float')")
        if not self.values:
            raise ValidationError(
                f"parameter {self.name!r} needs at least one value")
        if self.default not in self.values:
            raise ValidationError(
                f"parameter {self.name!r}: default {self.default!r} is not "
                f"among its values {list(self.values)}")

    def check(self, value: object) -> Optional[str]:
        """``None`` when ``value`` is a candidate value, else the reason."""
        if value not in self.values:
            return (f"{value!r} is not a candidate value of "
                    f"{self.name!r} (expected one of {list(self.values)})")
        return None


class ConfigSpace:
    """An ordered set of :class:`Parameter`\\ s and the sweep operations.

    Ordering matters twice: the coordinate-descent tuner walks the
    parameters in declaration order (put the high-leverage knobs first),
    and the canonical JSON behind :func:`config_id` sorts keys, so the
    declaration order never leaks into run IDs.
    """

    def __init__(self, parameters: List[Parameter]):
        names = [parameter.name for parameter in parameters]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValidationError(
                f"duplicate parameter name(s): {sorted(duplicates)}")
        self._parameters: Dict[str, Parameter] = {
            parameter.name: parameter for parameter in parameters}

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters.values())

    def names(self) -> List[str]:
        return list(self._parameters)

    def parameter(self, name: str) -> Parameter:
        parameter = self._parameters.get(name)
        if parameter is None:
            raise ValidationError(
                f"unknown parameter {name!r}; space parameters: "
                f"{self.names()}")
        return parameter

    # ------------------------------------------------------------------ #
    # configurations
    # ------------------------------------------------------------------ #
    def default_config(self) -> Dict[str, object]:
        """The baseline configuration: every parameter at its default."""
        return {parameter.name: parameter.default for parameter in self}

    def validate(self, config: Dict[str, object]) -> List[str]:
        """Every reason ``config`` is inadmissible (empty = valid).

        Unknown keys and missing parameters are defects too — a
        configuration is always *total* over the space, so hashes of
        valid configs are comparable.
        """
        reasons = []
        unknown = sorted(set(config) - set(self._parameters))
        if unknown:
            reasons.append(f"unknown parameter(s) {unknown}; space "
                           f"parameters: {self.names()}")
        for parameter in self:
            if parameter.name not in config:
                reasons.append(f"missing parameter {parameter.name!r}")
                continue
            reason = parameter.check(config[parameter.name])
            if reason is not None:
                reasons.append(f"{parameter.name}: {reason}")
        return reasons

    def one_factor_configs(
            self, baseline: Dict[str, object]
    ) -> List[Tuple[str, object, Dict[str, object]]]:
        """The one-factor-at-a-time neighbourhood of ``baseline``.

        For every parameter and every non-baseline candidate value,
        yields ``(parameter, value, config)`` where ``config`` is the
        baseline with that single knob changed.
        """
        neighbours = []
        for parameter in self:
            for value in parameter.values:
                if value == baseline.get(parameter.name):
                    continue
                neighbours.append((parameter.name, value,
                                   dict(baseline, **{parameter.name: value})))
        return neighbours


def _canonical(value: object) -> object:
    """JSON-stable form of one config value (``None``/bool/int/float/str)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips floats exactly and is stable across
        # platforms for the doubles we use; int-valued floats keep
        # their ".0" so 1.0 and 1 hash differently (they configure
        # differently too).
        return float(value)
    raise ValidationError(
        f"config values must be JSON scalars, got {type(value).__name__} "
        f"({value!r})")


def config_id(config: Dict[str, object]) -> str:
    """Stable, content-addressed run identifier for one configuration.

    SHA-1 over the canonical (sorted-key, separators-pinned) JSON
    encoding — no timestamps, no hostnames, no ordering sensitivity:
    the same configuration hashes identically in every process, so run
    IDs from independent sweeps can be joined.
    """
    canonical = {str(key): _canonical(value)
                 for key, value in config.items()}
    encoded = json.dumps(canonical, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return "run-" + hashlib.sha1(encoded).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# the concrete serving space
# ---------------------------------------------------------------------- #

#: Config keys consumed by ``PropagationService.from_config`` (the
#: service constructor knobs).  Everything else in the space is a
#: per-query knob.
SERVICE_KEYS = (
    "window_ms", "max_batch", "result_cache_size", "result_ttl_seconds",
    "snapshot_history",
)

#: Config keys that parameterise the queries (``QuerySpec`` fields).
QUERY_KEYS = ("tolerance",)


def service_config_space() -> ConfigSpace:
    """The standard knob space of the propagation serving stack.

    High-leverage knobs first (the coordinate-descent tuner walks the
    declaration order): batching, then caching, then the tolerance.
    """
    return ConfigSpace([
        Parameter("window_ms", "float", (0.0, 0.5, 2.0, 5.0), 2.0,
                  help="micro-batch collection window (0 disables "
                       "coalescing)"),
        Parameter("max_batch", "int", (4, 16, 32), 16,
                  help="dispatch a coalesced batch early at this size"),
        Parameter("result_cache_size", "int", (0, 64, 256), 256,
                  help="result-cache LRU capacity (0 disables caching)"),
        Parameter("result_ttl_seconds", "float", (None, 60.0, 300.0), 300.0,
                  help="result-cache entry lifetime (None = LRU only)"),
        Parameter("snapshot_history", "int", (0, 4), 4,
                  help="past snapshot versions retained for "
                       "staleness-bounded reads"),
        Parameter("tolerance", "float", (1e-10, 1e-8, 1e-6), 1e-10,
                  help="convergence threshold on the max belief change"),
    ])
