"""Belief matrices: explicit priors, residual centering, standardization.

The paper distinguishes

* **explicit (prior) beliefs** ``E`` — an ``n x k`` matrix whose non-zero rows
  belong to the few labeled nodes; rows are probability vectors summing to 1;
* **residual beliefs** ``Ê = E − 1/k`` — what LinBP actually propagates
  (rows of labeled nodes sum to 0, rows of unlabeled nodes are all zero);
* **final (posterior) beliefs** ``B`` / ``B̂`` — the algorithm outputs;
* the **standardization** ``ζ(x) = (x − μ)/σ`` of a belief vector
  (Definition 11), which removes the absolute scale so that the limits of
  LinBP and SBP can be compared (Theorem 19);
* the **top-belief assignment** (Problem 1) — for each node, the set of
  classes attaining the maximal final belief (sets, to allow ties).

:class:`BeliefMatrix` wraps an ``n x k`` residual matrix and offers these
views; :func:`explicit_beliefs_from_labels` builds priors from hard labels.
Every runner, the SQLite backend and the service take ``Ê`` through
:func:`checked_explicit` and updates to it through :func:`checked_update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "standardize",
    "center_probability_matrix",
    "uncenter_residual_matrix",
    "explicit_beliefs_from_labels",
    "explicit_residuals_from_labels",
    "checked_explicit",
    "checked_update",
    "top_belief_sets",
    "BeliefMatrix",
]

#: Ties closer than this (relative to the largest magnitude in the row) are
#: reported together by the top-belief assignment.
DEFAULT_TIE_TOLERANCE = 1e-10


def standardize(vector: np.ndarray) -> np.ndarray:
    """The standardization ``ζ(x)`` of Definition 11.

    Subtract the mean and divide by the (population) standard deviation;
    when the standard deviation is zero the result is the zero vector.

    Examples from the paper: ``ζ([1, 0]) = [1, −1]``, ``ζ([1, 1, 1]) = [0, 0, 0]``,
    ``ζ([1, 0, 0, 0, 0]) = [2, −0.5, −0.5, −0.5, −0.5]``.
    """
    array = np.asarray(vector, dtype=float)
    sigma = float(array.std())
    if sigma == 0.0:
        return np.zeros_like(array)
    return (array - array.mean()) / sigma


def center_probability_matrix(matrix: np.ndarray) -> np.ndarray:
    """Residuals ``X̂ = X − 1/k`` of a row-stochastic belief matrix."""
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise ValidationError("belief matrix must be two-dimensional")
    k = array.shape[1]
    return array - 1.0 / k


def uncenter_residual_matrix(residual: np.ndarray) -> np.ndarray:
    """Inverse of :func:`center_probability_matrix`: ``X = X̂ + 1/k``."""
    array = np.asarray(residual, dtype=float)
    if array.ndim != 2:
        raise ValidationError("residual matrix must be two-dimensional")
    k = array.shape[1]
    return array + 1.0 / k


def explicit_beliefs_from_labels(labels: Mapping[int, int], num_nodes: int,
                                 num_classes: int,
                                 confidence: float = 1.0) -> np.ndarray:
    """Row-stochastic prior beliefs from hard labels.

    A labeled node receives probability ``confidence`` on its class and the
    remainder spread uniformly over the other classes; unlabeled nodes get the
    uninformative prior ``1/k`` in every class.
    """
    if not 0.0 < confidence <= 1.0:
        raise ValidationError("confidence must lie in (0, 1]")
    if num_classes < 2:
        raise ValidationError("num_classes must be >= 2")
    beliefs = np.full((num_nodes, num_classes), 1.0 / num_classes)
    off_value = (1.0 - confidence) / (num_classes - 1)
    for node, label in labels.items():
        if not 0 <= node < num_nodes:
            raise ValidationError(f"labeled node {node} out of range")
        if not 0 <= label < num_classes:
            raise ValidationError(f"label {label} out of range")
        beliefs[node, :] = off_value
        beliefs[node, label] = confidence
    return beliefs


def explicit_residuals_from_labels(labels: Mapping[int, int], num_nodes: int,
                                   num_classes: int,
                                   magnitude: float = 0.1) -> np.ndarray:
    """Centered explicit beliefs ``Ê`` from hard labels.

    A labeled node gets ``+magnitude`` on its class and ``−magnitude/(k−1)``
    elsewhere (so the row sums to zero); unlabeled nodes stay all-zero.  This
    is the representation the LinBP and SBP APIs consume directly.
    """
    if magnitude <= 0:
        raise ValidationError("magnitude must be positive")
    if num_classes < 2:
        raise ValidationError("num_classes must be >= 2")
    residuals = np.zeros((num_nodes, num_classes))
    off_value = -magnitude / (num_classes - 1)
    for node, label in labels.items():
        if not 0 <= node < num_nodes:
            raise ValidationError(f"labeled node {node} out of range")
        if not 0 <= label < num_classes:
            raise ValidationError(f"label {label} out of range")
        residuals[node, :] = off_value
        residuals[node, label] = magnitude
    return residuals


def _require_finite(rows: np.ndarray, nodes) -> None:
    """Reject the first NaN or ±Infinity cell, naming its node and class."""
    finite = np.isfinite(rows)
    if not finite.all():
        row, klass = np.argwhere(~finite)[0]
        raise ValidationError(
            f"belief value {rows[row, klass]} for node {nodes[row]} "
            f"class {klass} is not finite")


def checked_explicit(explicit, num_nodes: int,
                     num_classes: Optional[int]) -> np.ndarray:
    """Explicit beliefs ``Ê`` as a checked ``n x k`` float64 matrix.

    A matrix that is not numeric, not ``num_nodes x num_classes`` (any
    column count when ``num_classes`` is None) or holds a NaN or
    ±Infinity cell is a :class:`ValidationError` naming the shape or the
    first offending cell.  Returns the input itself when it already is
    float64, a cast copy otherwise.
    """
    try:
        matrix = np.asarray(explicit, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(
            "explicit beliefs must be a numeric matrix") from None
    if matrix.ndim != 2 or matrix.shape[0] != num_nodes or (
            num_classes is not None and matrix.shape[1] != num_classes):
        raise ValidationError(
            f"explicit beliefs must be a {num_nodes} x "
            f"{'k' if num_classes is None else num_classes} matrix, "
            f"got shape {matrix.shape}")
    _require_finite(matrix, range(num_nodes))
    return matrix


def checked_update(update, num_nodes: int, num_classes: Optional[int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """An update to ``Ê`` as checked ``(nodes, rows)`` arrays.

    ``update`` is a ``node -> row`` mapping, which updates every listed
    node in mapping order (a zero row clears that node's label), or an
    ``n x k`` matrix whose non-zero rows are the update, in ascending
    node order.  Every node and row is checked before anything is
    returned: a node outside ``[0, num_nodes)``, a row of the wrong
    length (rows of any one length when ``num_classes`` is None) or a
    non-finite cell is a :class:`ValidationError` naming it.
    """
    if not isinstance(update, Mapping):
        matrix = checked_explicit(update, num_nodes, num_classes)
        nodes = np.flatnonzero(np.any(matrix != 0.0, axis=1))
        return nodes, matrix[nodes]
    rows: Dict[int, np.ndarray] = {}
    for node, vector in update.items():
        try:
            index = int(node)
            row = np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"node {node!r} needs an integer id and a numeric "
                "belief vector") from None
        if not 0 <= index < num_nodes:
            raise ValidationError(f"node {node} out of range [0, {num_nodes})")
        if num_classes is None and row.ndim == 1:
            num_classes = row.size
        if row.shape != (num_classes,):
            raise ValidationError(
                f"belief vector for node {node} must have length "
                f"{num_classes}")
        _require_finite(row[None, :], [node])
        rows[index] = row
    nodes = np.fromiter(rows, dtype=np.int64, count=len(rows))
    if not rows:
        return nodes, np.zeros((0, num_classes or 0))
    return nodes, np.vstack(list(rows.values()))


def top_belief_sets(beliefs: np.ndarray,
                    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
                    skip_all_zero: bool = True) -> List[Set[int]]:
    """Top-belief assignment with ties (Problem 1).

    For every node return the set of classes whose belief is within
    ``tie_tolerance`` — *relative* to the row's maximum absolute value — of
    the row maximum.  A relative tolerance matters because residual beliefs
    shrink geometrically with the distance from labeled nodes (Section 6), so
    far-away nodes have uniformly tiny but still well-ordered beliefs.  Rows
    that are entirely zero — typically nodes unreachable from any labeled
    node — yield an empty set when ``skip_all_zero`` is true (no prediction),
    or the set of all classes otherwise.
    """
    matrix = np.asarray(beliefs, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("belief matrix must be two-dimensional")
    assignments: List[Set[int]] = []
    for row in matrix:
        scale = float(np.max(np.abs(row)))
        if scale == 0.0:
            assignments.append(set() if skip_all_zero else set(range(matrix.shape[1])))
            continue
        threshold = float(row.max()) - tie_tolerance * scale
        assignments.append(set(np.nonzero(row >= threshold)[0].tolist()))
    return assignments


@dataclass
class BeliefMatrix:
    """An ``n x k`` residual belief matrix with convenience views.

    The residual convention means each labeled row sums to (approximately)
    zero; unlabeled rows of an explicit-belief matrix are all zero.
    """

    residuals: np.ndarray

    def __post_init__(self):
        array = np.asarray(self.residuals, dtype=float)
        if array.ndim != 2:
            raise ValidationError("belief matrix must be two-dimensional")
        self.residuals = array

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labels(cls, labels: Mapping[int, int], num_nodes: int,
                    num_classes: int, magnitude: float = 0.1) -> "BeliefMatrix":
        """Centered explicit beliefs from hard labels (see module docs)."""
        return cls(explicit_residuals_from_labels(labels, num_nodes, num_classes,
                                                  magnitude=magnitude))

    @classmethod
    def from_probabilities(cls, matrix: np.ndarray) -> "BeliefMatrix":
        """Center a row-stochastic matrix around 1/k."""
        return cls(center_probability_matrix(matrix))

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes (rows)."""
        return self.residuals.shape[0]

    @property
    def num_classes(self) -> int:
        """Number of classes (columns)."""
        return self.residuals.shape[1]

    @property
    def probabilities(self) -> np.ndarray:
        """Un-centered view ``B = B̂ + 1/k`` (not clipped)."""
        return uncenter_residual_matrix(self.residuals)

    def labeled_nodes(self) -> np.ndarray:
        """Indices of rows that carry any non-zero residual."""
        return np.nonzero(np.any(self.residuals != 0.0, axis=1))[0]

    def standardized(self) -> np.ndarray:
        """Row-wise standardization ``ζ`` of the residuals (Definition 11)."""
        return np.vstack([standardize(row) for row in self.residuals]) \
            if self.num_nodes else self.residuals.copy()

    def standard_deviations(self) -> np.ndarray:
        """Row-wise standard deviations ``σ(b̂_s)`` (used in Fig. 4d)."""
        return self.residuals.std(axis=1)

    def top_beliefs(self, tie_tolerance: float = DEFAULT_TIE_TOLERANCE) -> List[Set[int]]:
        """Top-belief assignment with ties for every node."""
        return top_belief_sets(self.residuals, tie_tolerance=tie_tolerance)

    def hard_labels(self) -> np.ndarray:
        """Single argmax label per node (ties broken towards the lowest class id).

        Nodes with all-zero rows receive label −1 ("no prediction").
        """
        labels = np.full(self.num_nodes, -1, dtype=np.int64)
        nonzero = np.any(self.residuals != 0.0, axis=1)
        labels[nonzero] = np.argmax(self.residuals[nonzero], axis=1)
        return labels

    def scaled(self, factor: float) -> "BeliefMatrix":
        """A copy with every residual multiplied by ``factor`` (Lemma 12)."""
        return BeliefMatrix(self.residuals * float(factor))

    def copy(self) -> "BeliefMatrix":
        """A deep copy."""
        return BeliefMatrix(self.residuals.copy())
