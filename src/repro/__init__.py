"""Reproduction of "Linearized and Single-Pass Belief Propagation" (VLDB 2015).

The package implements, from scratch and on top of ``numpy``/``scipy`` only:

* a standard multi-class loopy Belief Propagation baseline (:mod:`repro.core.bp`);
* **LinBP** and **LinBP*** — the paper's linearized BP, both as an iterative
  sparse-matrix algorithm and as a closed-form Kronecker-product linear
  system (:mod:`repro.core.linbp`), together with the exact and sufficient
  convergence criteria (:mod:`repro.core.convergence`);
* **SBP** — Single-Pass BP, the ``ε_H → 0`` limit of LinBP, with incremental
  maintenance under new labels and new edges (:mod:`repro.core.sbp`);
* the binary-class special case (FABP, :mod:`repro.core.fabp`);
* a shared propagation engine with cached per-graph plans and a batched,
  buffer-reuse iteration kernel that propagates many queries at once
  (:mod:`repro.engine`);
* the paper's SQL implementations of LinBP, SBP and ΔSBP, run on the
  stdlib SQLite engine (:mod:`repro.relational`);
* a thread-safe propagation *service* that fronts both engines: versioned
  graph snapshots, micro-batched concurrent queries, TTL+LRU result
  caching and a ``repro serve`` line protocol (:mod:`repro.service`);
* graph substrates, coupling-matrix handling, datasets, quality metrics, and
  one experiment module per table/figure of the paper
  (:mod:`repro.experiments`).

Quick start::

    from repro import Graph, CouplingMatrix, linbp, BeliefMatrix
    import numpy as np

    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    coupling = CouplingMatrix.from_residual(
        np.array([[0.1, -0.1], [-0.1, 0.1]]), epsilon=0.5)
    explicit = BeliefMatrix.from_labels({0: 0, 3: 1}, num_nodes=4, num_classes=2)
    result = linbp(graph, coupling, explicit.residuals)
    print(result.hard_labels())
"""

from repro.beliefs import BeliefMatrix, standardize, top_belief_sets
from repro.coupling import (
    CouplingMatrix,
    dblp_residual_matrix,
    fraud_matrix,
    heterophily_matrix,
    homophily_matrix,
    synthetic_residual_matrix,
)
from repro.core import (
    SBP,
    BeliefPropagation,
    LinBP,
    PropagationResult,
    belief_propagation,
    fabp,
    fabp_batch,
    linbp,
    linbp_closed_form,
    linbp_star,
    sbp,
)
from repro.engine import (
    PropagationPlan,
    SBPPlan,
    get_plan,
    get_sbp_plan,
    run_batch,
    run_sbp_batch,
)
from repro.exceptions import (
    ConvergenceError,
    DatasetError,
    NotConvergentParametersError,
    RelationalError,
    ReproError,
    SchemaError,
    ValidationError,
)
from repro.graphs import Edge, Graph
from repro.service import PropagationService, ServiceHarness

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "BeliefMatrix",
    "standardize",
    "top_belief_sets",
    "CouplingMatrix",
    "dblp_residual_matrix",
    "fraud_matrix",
    "heterophily_matrix",
    "homophily_matrix",
    "synthetic_residual_matrix",
    "SBP",
    "BeliefPropagation",
    "LinBP",
    "PropagationResult",
    "belief_propagation",
    "fabp",
    "fabp_batch",
    "linbp",
    "linbp_closed_form",
    "linbp_star",
    "sbp",
    "PropagationPlan",
    "SBPPlan",
    "get_plan",
    "get_sbp_plan",
    "run_batch",
    "run_sbp_batch",
    "ConvergenceError",
    "DatasetError",
    "NotConvergentParametersError",
    "RelationalError",
    "ReproError",
    "SchemaError",
    "ValidationError",
    "Edge",
    "Graph",
    "PropagationService",
    "ServiceHarness",
]
