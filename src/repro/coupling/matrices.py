"""Coupling ("heterophily") matrices and their centered residual form.

The paper couples neighbouring nodes through a k x k matrix ``H`` whose entry
``H(j, i)`` is the relative influence of class ``j`` of a node on class ``i``
of its neighbour (Fig. 1).  The derivation of LinBP requires ``H`` to be
symmetric and doubly stochastic, and then works exclusively with the
*residual* matrix ``Ĥ = H − 1/k`` (Definition 3), every row and column of
which sums to zero.

Section 6.2 additionally separates the *shape* of the coupling from its
*strength*: ``Ĥ = ε_H · Ĥo`` where ``Ĥo`` is the unscaled residual coupling
matrix and ``ε_H > 0`` the scaling factor that the experiments sweep.

:class:`CouplingMatrix` stores the unscaled residual ``Ĥo`` (or, equivalently,
the stochastic matrix it came from) and produces scaled residuals, squares,
spectral radii, and norms on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs import linalg

__all__ = [
    "CouplingMatrix",
    "residual_from_stochastic",
    "stochastic_from_residual",
    "is_doubly_stochastic",
    "make_doubly_stochastic",
]


def is_doubly_stochastic(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """True when every row and column of ``matrix`` sums to 1 (within ``tol``)."""
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        return False
    # rtol=0 keeps the check consistent with the residual-matrix validation
    # (which compares sums against zero, where relative tolerance is void).
    row_ok = np.allclose(array.sum(axis=1), 1.0, atol=tol, rtol=0.0)
    col_ok = np.allclose(array.sum(axis=0), 1.0, atol=tol, rtol=0.0)
    return bool(row_ok and col_ok)


def make_doubly_stochastic(matrix: np.ndarray, iterations: int = 1000,
                           tol: float = 1e-12) -> np.ndarray:
    """Sinkhorn–Knopp balancing of a non-negative matrix.

    The paper assumes the coupling matrix is doubly stochastic and notes
    (footnote 7) that single stochasticity "could easily be constructed" by
    normalisation; this helper performs the full balancing so arbitrary
    non-negative affinity matrices can be used as input.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValidationError("coupling matrix must be square")
    if np.any(array < 0):
        raise ValidationError("coupling affinities must be non-negative")
    if np.any(array.sum(axis=1) == 0) or np.any(array.sum(axis=0) == 0):
        raise ValidationError("coupling matrix must have no all-zero row or column")
    balanced = array.copy()
    for _ in range(iterations):
        balanced = balanced / balanced.sum(axis=1, keepdims=True)
        balanced = balanced / balanced.sum(axis=0, keepdims=True)
        if is_doubly_stochastic(balanced, tol=tol):
            break
    return balanced


def residual_from_stochastic(matrix: np.ndarray) -> np.ndarray:
    """Residual coupling matrix ``Ĥ = H − 1/k`` (Definition 3)."""
    array = np.asarray(matrix, dtype=float)
    k = array.shape[0]
    return array - 1.0 / k


def stochastic_from_residual(residual: np.ndarray) -> np.ndarray:
    """Inverse of :func:`residual_from_stochastic`: ``H = Ĥ + 1/k``."""
    array = np.asarray(residual, dtype=float)
    k = array.shape[0]
    return array + 1.0 / k


@dataclass(frozen=True)
class CouplingMatrix:
    """An unscaled residual coupling matrix ``Ĥo`` plus a scaling factor ``ε_H``.

    Instances are immutable; scaling produces new instances.  The residual
    actually used by the algorithms is ``residual = ε_H · Ĥo``.

    Attributes
    ----------
    unscaled_residual:
        The k x k residual matrix ``Ĥo`` (rows and columns sum to zero).
    epsilon:
        The positive scaling factor ``ε_H``; 1.0 means "use ``Ĥo`` as is".
    class_names:
        Optional display names for the k classes.
    """

    unscaled_residual: np.ndarray
    epsilon: float = 1.0
    class_names: Optional[Sequence[str]] = None

    def __post_init__(self):
        residual = np.asarray(self.unscaled_residual, dtype=float)
        if residual.ndim != 2 or residual.shape[0] != residual.shape[1]:
            raise ValidationError("residual coupling matrix must be square")
        if residual.shape[0] < 2:
            raise ValidationError("at least two classes are required")
        if not np.allclose(residual, residual.T, atol=1e-9):
            raise ValidationError("residual coupling matrix must be symmetric")
        if not np.allclose(residual.sum(axis=0), 0.0, atol=1e-8):
            raise ValidationError(
                "residual coupling matrix columns must sum to zero "
                "(is the source matrix doubly stochastic?)")
        if not np.allclose(residual.sum(axis=1), 0.0, atol=1e-8):
            raise ValidationError("residual coupling matrix rows must sum to zero")
        if not 0.0 < self.epsilon < math.inf:
            raise ValidationError(
                f"epsilon (the coupling scale) must be positive and finite, "
                f"got {self.epsilon!r}")
        if self.class_names is not None and len(self.class_names) != residual.shape[0]:
            raise ValidationError(
                f"expected {residual.shape[0]} class names, got {len(self.class_names)}")
        object.__setattr__(self, "unscaled_residual", residual)
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_stochastic(cls, matrix: np.ndarray, epsilon: float = 1.0,
                        class_names: Optional[Sequence[str]] = None,
                        balance: bool = False) -> "CouplingMatrix":
        """Build from a (doubly) stochastic coupling matrix like Fig. 1a–c.

        With ``balance=True`` an arbitrary non-negative affinity matrix is
        first made doubly stochastic with Sinkhorn balancing.
        """
        array = np.asarray(matrix, dtype=float)
        if balance:
            array = make_doubly_stochastic(array)
        if not is_doubly_stochastic(array):
            raise ValidationError(
                "coupling matrix must be doubly stochastic; "
                "pass balance=True to balance an affinity matrix first")
        if not np.allclose(array, array.T, atol=1e-9):
            raise ValidationError("coupling matrix must be symmetric")
        return cls(residual_from_stochastic(array), epsilon=epsilon,
                   class_names=class_names)

    @classmethod
    def from_residual(cls, residual: np.ndarray, epsilon: float = 1.0,
                      class_names: Optional[Sequence[str]] = None) -> "CouplingMatrix":
        """Build directly from an unscaled residual matrix ``Ĥo`` (e.g. Fig. 6b)."""
        return cls(np.asarray(residual, dtype=float), epsilon=epsilon,
                   class_names=class_names)

    # ------------------------------------------------------------------ #
    # basic views
    # ------------------------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        """Number of classes ``k``."""
        return self.unscaled_residual.shape[0]

    @property
    def residual(self) -> np.ndarray:
        """The scaled residual ``Ĥ = ε_H · Ĥo`` used by the algorithms."""
        return self.epsilon * self.unscaled_residual

    @property
    def residual_squared(self) -> np.ndarray:
        """``Ĥ²`` as needed by the echo-cancellation term."""
        scaled = self.residual
        return scaled @ scaled

    @property
    def stochastic(self) -> np.ndarray:
        """The (approximately) stochastic matrix ``H = Ĥ + 1/k``.

        Only a genuine probability matrix when the scaled residual entries
        stay within ``[−1/k, (k−1)/k]``; the experiments use small ``ε_H``
        where this always holds.
        """
        return stochastic_from_residual(self.residual)

    def scaled(self, epsilon: float) -> "CouplingMatrix":
        """A copy of this coupling with a different scale ``ε_H``."""
        return CouplingMatrix(self.unscaled_residual, epsilon=float(epsilon),
                              class_names=self.class_names)

    # ------------------------------------------------------------------ #
    # analysis helpers
    # ------------------------------------------------------------------ #
    def spectral_radius(self, scaled: bool = True) -> float:
        """``ρ(Ĥ)`` of the scaled (default) or unscaled residual."""
        matrix = self.residual if scaled else self.unscaled_residual
        return linalg.spectral_radius(matrix)

    def minimum_norm(self, scaled: bool = True) -> float:
        """Minimum of Frobenius / induced-1 / induced-inf norms (Lemma 9)."""
        matrix = self.residual if scaled else self.unscaled_residual
        return linalg.minimum_norm(matrix)

    def is_homophily(self) -> bool:
        """True when every diagonal entry dominates its column (homophily)."""
        residual = self.unscaled_residual
        diagonal = np.diag(residual)
        off_diagonal_max = np.max(residual - np.diag(np.full(self.num_classes, np.inf)),
                                  axis=0)
        return bool(np.all(diagonal > off_diagonal_max))

    def name_of(self, class_index: int) -> str:
        """Display name of a class (falls back to ``'class<i>'``)."""
        if self.class_names is not None:
            return self.class_names[class_index]
        return f"class{class_index}"

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (f"CouplingMatrix(k={self.num_classes}, epsilon={self.epsilon:g}, "
                f"rho_unscaled={self.spectral_radius(scaled=False):.4f})")
