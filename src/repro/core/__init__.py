"""Core algorithms: standard BP, LinBP, LinBP*, SBP, FABP, convergence criteria."""

from repro.core.bp import BeliefPropagation, belief_propagation
from repro.core.convergence import (
    ConvergenceReport,
    analyze,
    edge_adjacency_matrix,
    exact_convergence_linbp,
    exact_convergence_linbp_star,
    max_epsilon_exact,
    max_epsilon_sufficient,
    mooij_kappen_bound,
    mooij_kappen_constant,
    simple_norm_bound_linbp,
    sufficient_norm_bound_linbp,
    sufficient_norm_bound_linbp_star,
)
from repro.core.estimation import CouplingEstimate, estimate_coupling
from repro.core.fabp import binary_coupling, fabp, fabp_batch, fabp_closed_form
from repro.core.incremental import IncrementalLinBP
from repro.core.linbp import LinBP, linbp, linbp_closed_form, linbp_star
from repro.core.relational_learner import weighted_vote_relational_neighbor, wvrn
from repro.core.results import PropagationResult
from repro.core.sbp import SBP, sbp

__all__ = [
    "BeliefPropagation",
    "belief_propagation",
    "ConvergenceReport",
    "analyze",
    "edge_adjacency_matrix",
    "exact_convergence_linbp",
    "exact_convergence_linbp_star",
    "max_epsilon_exact",
    "max_epsilon_sufficient",
    "mooij_kappen_bound",
    "mooij_kappen_constant",
    "simple_norm_bound_linbp",
    "sufficient_norm_bound_linbp",
    "sufficient_norm_bound_linbp_star",
    "CouplingEstimate",
    "estimate_coupling",
    "IncrementalLinBP",
    "binary_coupling",
    "fabp",
    "fabp_batch",
    "fabp_closed_form",
    "weighted_vote_relational_neighbor",
    "wvrn",
    "LinBP",
    "linbp",
    "linbp_closed_form",
    "linbp_star",
    "PropagationResult",
    "SBP",
    "sbp",
]
