"""One experiment module per table/figure of the paper (see DESIGN.md index)."""

from repro.experiments.ablations import (
    run_baseline_comparison,
    run_echo_cancellation_ablation,
    run_estimated_coupling_experiment,
    run_incremental_linbp_experiment,
    run_solver_ablation,
)
from repro.experiments.appendix_g_bounds import run_bound_comparison
from repro.experiments.fig10_sensitivity import (
    run_explicit_fraction_sweep,
    run_incremental_edges,
)
from repro.experiments.fig11_dblp import run_dblp_quality
from repro.experiments.fig4_torus import (
    run_torus_sweep,
    torus_reference_values,
    torus_workload,
)
from repro.experiments.fig6_datasets import run_dataset_table
from repro.experiments.fig7_incremental import (
    incremental_arms,
    run_incremental_beliefs,
)
from repro.experiments.fig7_periteration import run_per_iteration_timing
from repro.experiments.fig7_quality import run_quality_sweep
from repro.experiments.fig7_scalability import (
    run_memory_scalability,
    run_relational_scalability,
    run_timing_table,
    timing_arms,
)
from repro.experiments.runner import ResultTable, propagate_batch, timed

__all__ = [
    "run_baseline_comparison",
    "run_echo_cancellation_ablation",
    "run_estimated_coupling_experiment",
    "run_incremental_linbp_experiment",
    "run_solver_ablation",
    "run_bound_comparison",
    "run_explicit_fraction_sweep",
    "run_incremental_edges",
    "run_dblp_quality",
    "run_torus_sweep",
    "torus_reference_values",
    "torus_workload",
    "run_dataset_table",
    "incremental_arms",
    "run_incremental_beliefs",
    "run_per_iteration_timing",
    "run_quality_sweep",
    "run_memory_scalability",
    "run_relational_scalability",
    "run_timing_table",
    "timing_arms",
    "ResultTable",
    "propagate_batch",
    "timed",
]
