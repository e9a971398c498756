"""Belief matrices: centering, standardization, and top-belief assignment."""

from repro.beliefs.beliefs import (
    BeliefMatrix,
    center_probability_matrix,
    checked_explicit,
    checked_update,
    explicit_beliefs_from_labels,
    explicit_residuals_from_labels,
    standardize,
    top_belief_sets,
    uncenter_residual_matrix,
)

__all__ = [
    "BeliefMatrix",
    "center_probability_matrix",
    "checked_explicit",
    "checked_update",
    "explicit_beliefs_from_labels",
    "explicit_residuals_from_labels",
    "standardize",
    "top_belief_sets",
    "uncenter_residual_matrix",
]
