"""Common result container returned by every propagation algorithm.

All algorithms in :mod:`repro.core` (standard BP, LinBP, LinBP*, SBP, FABP)
return a :class:`PropagationResult`, so downstream code — quality metrics,
experiments, examples — can treat them uniformly.  The residual final-belief
matrix is the primary payload; convergence diagnostics and timing live in the
metadata fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.beliefs.beliefs import BeliefMatrix, top_belief_sets

__all__ = ["PropagationResult"]


@dataclass
class PropagationResult:
    """Final beliefs plus convergence diagnostics of a propagation run.

    Attributes
    ----------
    beliefs:
        Residual (centered) final beliefs ``B̂`` as an ``n x k`` array.
    method:
        Human-readable name of the algorithm that produced the result
        (``"BP"``, ``"LinBP"``, ``"LinBP*"``, ``"SBP"``, ...).
    iterations:
        Number of iterations performed (0 for closed-form solutions and for
        single-pass algorithms that do not iterate over the whole graph).
    converged:
        Whether the stopping criterion was met within the iteration budget.
        Closed-form and single-pass methods always report True.
    residual_history:
        Maximum absolute belief change per iteration (empty for closed forms).
    extra:
        Free-form metadata (e.g. spectral radii, per-iteration timings).
    """

    beliefs: np.ndarray
    method: str
    iterations: int = 0
    converged: bool = True
    residual_history: List[float] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # Floating input is kept as given (no copy); only non-float
        # input (lists, ints) is promoted.
        self.beliefs = np.asarray(self.beliefs)
        if not np.issubdtype(self.beliefs.dtype, np.floating):
            self.beliefs = np.asarray(self.beliefs, dtype=float)

    # ------------------------------------------------------------------ #
    # convenience views
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.beliefs.shape[0]

    @property
    def num_classes(self) -> int:
        """Number of classes."""
        return self.beliefs.shape[1]

    def belief_matrix(self) -> BeliefMatrix:
        """The final beliefs wrapped in a :class:`BeliefMatrix`."""
        return BeliefMatrix(self.beliefs)

    def top_beliefs(self, tie_tolerance: float = 1e-10) -> List[Set[int]]:
        """Top-belief assignment (sets of classes, allowing ties) per node."""
        return top_belief_sets(self.beliefs, tie_tolerance=tie_tolerance)

    def hard_labels(self) -> np.ndarray:
        """Argmax labels per node (−1 for all-zero rows)."""
        return self.belief_matrix().hard_labels()

    def standardized_beliefs(self) -> np.ndarray:
        """Row-wise standardization ζ(B̂) (Definition 11)."""
        return self.belief_matrix().standardized()

    def final_residual(self) -> Optional[float]:
        """Last recorded iteration-to-iteration change (None for closed forms)."""
        return self.residual_history[-1] if self.residual_history else None

    def summary(self) -> str:
        """One-line human-readable summary used by the examples."""
        status = "converged" if self.converged else "NOT converged"
        residual = self.final_residual()
        residual_text = f", final delta={residual:.3g}" if residual is not None else ""
        return (f"{self.method}: {self.num_nodes} nodes x {self.num_classes} classes, "
                f"{self.iterations} iterations, {status}{residual_text}")
