"""``repro.tune`` — ablation and autotuning over the serving knob space.

The serving stack has several interacting knobs — micro-batch window,
cache sizes, TTLs, convergence tolerance — and
this package is the structured answer to *which of them earn their
keep on a given graph*:

* :mod:`repro.tune.space` — the typed config-space model: parameter
  declarations and content-addressed config hashing → stable run IDs;
* :mod:`repro.tune.runner` — the ablation runner: executes candidate
  configs against a seeded :meth:`ServiceHarness.run_mixed` closed loop
  (or an engine-only ``run_batch`` drive) with crash isolation and
  per-run timeouts, reading every metric off the :mod:`repro.obs`
  registries;
* :mod:`repro.tune.report` — one-factor ablation deltas vs the
  baseline, ranked into a component-importance report (JSON schema +
  human rendering);
* :mod:`repro.tune.select` — coordinate-descent autotuning that emits
  the per-graph serving-config artifact
  :meth:`PropagationService.from_config` and ``repro serve --config``
  consume.

CLI entry points: ``repro ablate`` and ``repro tune``.  See
docs/tuning.md.
"""

from repro.tune.report import (
    REPORT_SCHEMA_VERSION,
    AblationReport,
    VariantDelta,
    build_report,
    render_report,
)
from repro.tune.runner import (
    AblationRunner,
    RunMetrics,
    RunRecord,
    Workload,
    make_engine_workload,
    make_mixed_workload,
    measure_config,
)
from repro.tune.select import (
    ARTIFACT_KIND,
    ARTIFACT_VERSION,
    SelectionResult,
    make_artifact,
    select_config,
)
from repro.tune.space import (
    QUERY_KEYS,
    SERVICE_KEYS,
    ConfigSpace,
    Parameter,
    config_id,
    service_config_space,
)

__all__ = [
    "Parameter",
    "ConfigSpace",
    "config_id",
    "service_config_space",
    "SERVICE_KEYS",
    "QUERY_KEYS",
    "Workload",
    "RunMetrics",
    "RunRecord",
    "AblationRunner",
    "make_mixed_workload",
    "make_engine_workload",
    "measure_config",
    "AblationReport",
    "VariantDelta",
    "build_report",
    "render_report",
    "REPORT_SCHEMA_VERSION",
    "SelectionResult",
    "select_config",
    "make_artifact",
    "ARTIFACT_VERSION",
    "ARTIFACT_KIND",
]
