"""Autotuner: coordinate descent over the space → a serving artifact.

The selection rule is engineered so the acceptance criterion holds *by
construction*: descent starts at the space's default configuration
(always measured), and a move to a one-knob neighbour is accepted only
if the neighbour **Pareto-dominates the incumbent** on the measured
run — p99 no higher AND throughput no lower, with at least a relative
``margin`` improvement on one of the two so wall-clock noise can't walk
the search sideways.  Dominance is transitive, so whatever configuration
the descent ends on is measured-no-worse than the default on both
headline metrics.  A search that finds nothing better returns the
default itself.

The emitted artifact is exactly what
:meth:`repro.service.service.PropagationService.from_config` and
``repro serve --config`` consume::

    {"version": 1,
     "kind": "repro-serving-config",
     "service": {"window_ms": 2.0, "max_batch": 16, ...},
     "query":   {"tolerance": 1e-10},
     "meta":    {...provenance: run IDs, metrics, workload...}}

``meta`` is provenance only — the consumer validates ``service`` and
``query`` strictly and leaves ``meta`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ValidationError
from repro.tune.runner import AblationRunner, RunRecord
from repro.tune.space import QUERY_KEYS, SERVICE_KEYS, config_id

__all__ = ["SelectionResult", "select_config", "make_artifact",
           "ARTIFACT_VERSION", "ARTIFACT_KIND"]

ARTIFACT_VERSION = 1
ARTIFACT_KIND = "repro-serving-config"


@dataclass(frozen=True)
class SelectionResult:
    """What the descent chose, with full provenance."""

    config: Dict[str, object]
    run_id: str
    baseline: RunRecord
    selected: RunRecord
    #: One dict per evaluated move: round, parameter, value, run_id,
    #: status, accepted, reason.
    trace: Tuple[Dict[str, object], ...]

    @property
    def improved(self) -> bool:
        return self.selected.run_id != self.baseline.run_id

    def artifact(self, graph_name: str = "g",
                 workload: str = "") -> Dict[str, object]:
        return make_artifact(self.config, graph_name=graph_name,
                             workload=workload, baseline=self.baseline,
                             selected=self.selected)


def _dominates(candidate: RunRecord, incumbent: RunRecord,
               margin: float) -> Tuple[bool, str]:
    """Pareto acceptance test; returns (accepted, reason)."""
    c, i = candidate.metrics, incumbent.metrics
    if c.p99_seconds > i.p99_seconds:
        return False, (f"p99 regressed ({c.p99_seconds:.6f}s > "
                       f"{i.p99_seconds:.6f}s)")
    if c.throughput_rps < i.throughput_rps:
        return False, (f"throughput regressed ({c.throughput_rps:.1f} < "
                       f"{i.throughput_rps:.1f} req/s)")
    p99_gain = (i.p99_seconds - c.p99_seconds) / i.p99_seconds \
        if i.p99_seconds > 0 else 0.0
    thr_gain = (c.throughput_rps - i.throughput_rps) / i.throughput_rps \
        if i.throughput_rps > 0 else 0.0
    if max(p99_gain, thr_gain) < margin:
        return False, (f"improvement below margin "
                       f"(p99 {p99_gain:+.2%}, throughput {thr_gain:+.2%})")
    return True, (f"dominates incumbent "
                  f"(p99 {-p99_gain:+.2%}, throughput {thr_gain:+.2%})")


def select_config(runner: AblationRunner, *, rounds: int = 2,
                  margin: float = 0.02) -> SelectionResult:
    """Coordinate descent from the default config over ``runner``'s space.

    Each round walks the parameters in the space's declared order; for
    every parameter the alternative values (one-knob changes from the
    *current* incumbent) are measured, and the best accepted
    dominator — largest summed relative gain, declared value order
    breaking ties — becomes the new incumbent.  The descent stops after
    a round with no accepted move, or after ``rounds`` rounds.  Every
    evaluation (including failures and rejections) lands in the trace.
    """
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    space = runner.space
    incumbent_config = space.default_config()
    baseline = runner.run_baseline()
    if not baseline.ok:
        raise ValidationError(
            "the default configuration failed to measure "
            f"({baseline.status}: {baseline.error}) — cannot tune")
    incumbent = baseline
    trace: List[Dict[str, object]] = []

    for round_index in range(1, rounds + 1):
        accepted_any = False
        for parameter in space.names():
            best: Optional[Tuple[float, Dict, RunRecord, object]] = None
            for name, value, config in \
                    space.one_factor_configs(incumbent_config):
                if name != parameter:
                    continue
                entry = {"round": round_index, "parameter": parameter,
                         "value": value, "run_id": config_id(config),
                         "accepted": False}
                record = runner.run_config(config)
                entry["status"] = record.status
                if not record.ok:
                    entry["reason"] = record.error
                    trace.append(entry)
                    continue
                ok, reason = _dominates(record, incumbent, margin)
                entry["reason"] = reason
                trace.append(entry)
                if not ok:
                    continue
                i = incumbent.metrics
                gain = ((i.p99_seconds - record.metrics.p99_seconds)
                        / i.p99_seconds if i.p99_seconds > 0 else 0.0) \
                    + ((record.metrics.throughput_rps - i.throughput_rps)
                       / i.throughput_rps if i.throughput_rps > 0 else 0.0)
                # Strictly-better keeps the first (declared-order) value
                # on ties — deterministic under a deterministic measure.
                if best is None or gain > best[0]:
                    best = (gain, config, record, value)
            if best is not None:
                _, incumbent_config, incumbent, value = best
                accepted_any = True
                trace.append({"round": round_index, "parameter": parameter,
                              "value": value, "run_id": incumbent.run_id,
                              "status": "ok", "accepted": True,
                              "reason": "new incumbent"})
        if not accepted_any:
            break

    return SelectionResult(config=dict(incumbent_config),
                           run_id=incumbent.run_id, baseline=baseline,
                           selected=incumbent, trace=tuple(trace))


def make_artifact(config: Dict[str, object], *, graph_name: str = "g",
                  workload: str = "",
                  baseline: Optional[RunRecord] = None,
                  selected: Optional[RunRecord] = None
                  ) -> Dict[str, object]:
    """Build the serving-config artifact ``from_config`` consumes."""
    missing = [key for key in SERVICE_KEYS + QUERY_KEYS if key not in config]
    if missing:
        raise ValidationError(
            f"config is missing parameters {missing!r} — artifacts are "
            "built from complete configurations")
    meta: Dict[str, object] = {"graph_name": graph_name,
                               "run_id": config_id(config)}
    if workload:
        meta["workload"] = workload
    if selected is not None and selected.metrics is not None:
        meta["metrics"] = selected.metrics.as_dict()
    if baseline is not None and baseline.metrics is not None:
        meta["baseline"] = {"run_id": baseline.run_id,
                            "metrics": baseline.metrics.as_dict()}
    return {
        "version": ARTIFACT_VERSION,
        "kind": ARTIFACT_KIND,
        "service": {key: config[key] for key in SERVICE_KEYS},
        "query": {key: config[key] for key in QUERY_KEYS},
        "meta": meta,
    }
