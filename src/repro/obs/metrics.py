"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of :mod:`repro.obs` (spans are the
other).  Design constraints, in order:

1. **Near-zero cost when disabled.**  Every recording call starts with
   one attribute read on the module-level :data:`STATE` flag and returns
   immediately when telemetry is off — no lock, no dict lookup, no
   allocation.  ``REPRO_OBS_DISABLED=1`` sets the flag at import;
   :func:`set_obs_enabled` flips it at runtime (used by the overhead
   benchmark to measure both sides in one process).
2. **Always-on islands.**  A registry built with ``always_on=True``
   records regardless of the global flag.  The propagation service keeps
   its request accounting on such a registry because ``stats()`` is part
   of its public contract — those counters are state, not telemetry, and
   must stay exact even under ``REPRO_OBS_DISABLED=1``.
3. **Per-graph labels.**  Metrics carry optional labels
   (``counter.inc(graph="dblp")``); each label combination is an
   independent series, and ``value()`` with no labels sums the series —
   the shape ``stats()`` totals need.
4. **No dependencies.**  Plain stdlib + the process-wide default
   registry (:data:`REGISTRY`); rendering to Prometheus text lives in
   :mod:`repro.obs.exporter`.

Thread safety: one re-entrant lock per registry guards metric creation;
each metric guards its own series dict with the registry's lock too.
Totals are exact under concurrent writers — the hammer test in
``tests/obs/test_obs_threads.py`` holds N writer threads against a
rendering reader and checks the final counts to the unit.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "obs_enabled",
    "set_obs_enabled",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds — spans from
#: microsecond kernel sweeps to multi-second full-graph solves.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _env_disabled() -> bool:
    return os.environ.get("REPRO_OBS_DISABLED", "") not in ("", "0")


class _ObsState:
    """Module-level telemetry switch — one attribute read on the hot path."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = not _env_disabled()


STATE = _ObsState()


def obs_enabled() -> bool:
    """Whether global telemetry (spans + default-registry metrics) records."""
    return STATE.enabled


def set_obs_enabled(enabled: bool) -> None:
    """Flip the global telemetry switch at runtime (tests and benchmarks)."""
    STATE.enabled = bool(enabled)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical hashable identity of one label combination."""
    if not labels:
        return ()
    if len(labels) == 1:  # the hot per-sweep case: skip the sort
        ((key, value),) = labels.items()
        return ((key if type(key) is str else str(key), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared machinery: name/help/type plus the per-label series table."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._registry = registry
        self._lock = registry._lock
        self._series: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _recording(self) -> bool:
        return self._registry._always_on or STATE.enabled

    def labeled_values(self) -> List[Tuple[Dict[str, str], object]]:
        """Every series as ``(labels dict, value)`` — a consistent snapshot."""
        with self._lock:
            return [(dict(key), value)
                    for key, value in sorted(self._series.items())]


class Counter(_Metric):
    """Monotonically increasing count, one series per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._recording():
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """One series' count, or the sum over all series with no labels."""
        with self._lock:
            if labels:
                return float(self._series.get(_label_key(labels), 0.0))
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that can go up and down (versions, sizes, drifts)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._recording():
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            if labels:
                return float(self._series.get(_label_key(labels), 0.0))
            values = list(self._series.values())
            return float(sum(values))


class _HistogramSeries:
    """One label combination's bucket counts, sum and count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution (cumulative ``le`` semantics on render)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, registry: "MetricsRegistry",
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help_text, registry)
        bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            index = bisect_left(self.buckets, value)
            if index < len(self.buckets):
                series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: object) -> int:
        """Observations in one series, or across all series with no labels."""
        with self._lock:
            if labels:
                series = self._series.get(_label_key(labels))
                return series.count if series is not None else 0
            return sum(series.count for series in self._series.values())

    def sum_value(self, **labels: object) -> float:
        with self._lock:
            if labels:
                series = self._series.get(_label_key(labels))
                return series.sum if series is not None else 0.0
            return float(sum(series.sum for series in self._series.values()))


class MetricsRegistry:
    """A named collection of metrics; get-or-create, type-checked.

    ``always_on=True`` makes every metric of the registry record even
    when the global telemetry switch is off — for counters that back a
    public stats contract rather than optional observability.
    """

    def __init__(self, always_on: bool = False) -> None:
        self._lock = threading.RLock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._always_on = bool(always_on)

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}")
                return metric
            metric = cls(name, help_text, self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every recorded series (metric definitions survive)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._series.clear()

    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every metric — the ``metrics`` wire op payload."""
        out: Dict[str, dict] = {}
        for metric in self.metrics():
            entry: dict = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {"labels": labels,
                     "bucket_counts": list(series.bucket_counts),
                     "sum": series.sum, "count": series.count}
                    for labels, series in metric.labeled_values()]
            else:
                entry["series"] = [{"labels": labels, "value": value}
                                   for labels, value in metric.labeled_values()]
            out[metric.name] = entry
        return out


#: The process-wide default registry: engine, service and span metrics.
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str = "") -> Counter:
    """Get or create a counter on the default registry."""
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Get or create a gauge on the default registry."""
    return REGISTRY.gauge(name, help_text)


def histogram(name: str, help_text: str = "",
              buckets: Optional[Sequence[float]] = None) -> Histogram:
    """Get or create a histogram on the default registry."""
    return REGISTRY.histogram(name, help_text, buckets=buckets)


def iter_registries(*extra: MetricsRegistry) -> Iterable[MetricsRegistry]:
    """The default registry followed by ``extra`` (deduplicated, in order)."""
    seen = []
    for registry in (REGISTRY, *extra):
        if registry is not None and all(registry is not s for s in seen):
            seen.append(registry)
    return seen
