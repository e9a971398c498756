"""Shared propagation engine: cached plans + batched buffer-reuse kernels.

This layer sits between the solver front ends (:mod:`repro.core.linbp`,
:mod:`repro.core.fabp`, :mod:`repro.core.sbp`, the experiment drivers)
and the raw linear algebra.  It contributes three things the
one-query-at-a-time API could not:

* :mod:`repro.engine.plan` — :class:`PropagationPlan`, a cached bundle of
  per-``(graph, coupling, echo_cancellation)`` artifacts (canonical CSR
  adjacency, squared-degree vector, scaled residual coupling and its
  square, lazily the Lemma 8 spectral radius and the update operator's
  ∞-norm), plus a cached sparse LU factorisation for the binary FaBP
  closed form;
* :mod:`repro.engine.batch` — :func:`run_batch`, which propagates many
  explicit-belief matrices concurrently as one ``n x (q·k)`` block over
  preallocated ping-pong buffers (:class:`BatchWorkspace`), using the
  in-place kernels of :mod:`repro.engine.kernels`;
* :mod:`repro.engine.sbp_plan` — :class:`SBPPlan`, the single-pass
  analogue: cached geodesic structure (vectorised multi-source BFS, the
  Lemma-17 DAG, contiguous per-level CSR slices) per
  ``(graph, labeled set)``, :func:`run_sbp_batch` for stacked SBP
  queries, and the vectorised ΔSBP frontier repairs behind
  Algorithms 3–4.

Every array the engine computes on is float64 numpy, the precision in
which the paper states Lemma 8 and Proposition 7.  Callers — the
service, the CLI and the tuner — build a plan with :func:`get_plan`
and answer with :func:`run_batch`, or call :func:`run_sbp_batch`.

See ``docs/performance.md`` for the API guide and caching semantics.
"""

from repro.engine.batch import BatchWorkspace, run_batch
from repro.engine.kernels import HAVE_INPLACE_SPMM
from repro.engine.plan import (
    PropagationPlan,
    clear_plan_cache,
    get_binary_solver,
    get_plan,
    plan_cache_info,
)
from repro.engine.sbp_plan import (
    SBPPlan,
    get_sbp_plan,
    repair_added_edges,
    repair_explicit_beliefs,
    run_sbp_batch,
    sbp_plan_cache_info,
)

__all__ = [
    "BatchWorkspace",
    "run_batch",
    "HAVE_INPLACE_SPMM",
    "PropagationPlan",
    "clear_plan_cache",
    "get_binary_solver",
    "get_plan",
    "plan_cache_info",
    "SBPPlan",
    "get_sbp_plan",
    "repair_added_edges",
    "repair_explicit_beliefs",
    "run_sbp_batch",
    "sbp_plan_cache_info",
]
