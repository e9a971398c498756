"""Unit tests for coupling-matrix handling (centering, scaling, validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coupling import (
    CouplingMatrix,
    is_doubly_stochastic,
    make_doubly_stochastic,
    residual_from_stochastic,
    stochastic_from_residual,
)
from repro.exceptions import ValidationError


class TestStochasticHelpers:
    def test_is_doubly_stochastic_accepts_valid(self):
        assert is_doubly_stochastic(np.array([[0.8, 0.2], [0.2, 0.8]]))

    def test_is_doubly_stochastic_rejects_row_only(self):
        matrix = np.array([[0.5, 0.5], [0.9, 0.1]])
        assert not is_doubly_stochastic(matrix)

    def test_is_doubly_stochastic_rejects_non_square(self):
        assert not is_doubly_stochastic(np.ones((2, 3)) / 3)

    def test_residual_centering_roundtrip(self):
        stochastic = np.array([[0.6, 0.3, 0.1], [0.3, 0.0, 0.7], [0.1, 0.7, 0.2]])
        residual = residual_from_stochastic(stochastic)
        assert np.allclose(residual.sum(axis=0), 0.0)
        assert np.allclose(residual.sum(axis=1), 0.0)
        assert np.allclose(stochastic_from_residual(residual), stochastic)

    def test_sinkhorn_balancing(self):
        affinity = np.array([[5.0, 1.0], [1.0, 5.0]])
        balanced = make_doubly_stochastic(affinity)
        assert is_doubly_stochastic(balanced)

    def test_sinkhorn_rejects_negative(self):
        with pytest.raises(ValidationError):
            make_doubly_stochastic(np.array([[1.0, -1.0], [0.5, 0.5]]))

    def test_sinkhorn_rejects_zero_row(self):
        with pytest.raises(ValidationError):
            make_doubly_stochastic(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_sinkhorn_rejects_non_square(self):
        with pytest.raises(ValidationError):
            make_doubly_stochastic(np.ones((2, 3)))


class TestCouplingMatrix:
    def test_from_stochastic(self):
        coupling = CouplingMatrix.from_stochastic(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert coupling.num_classes == 2
        assert np.allclose(coupling.residual, [[0.3, -0.3], [-0.3, 0.3]])

    def test_from_stochastic_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_stochastic(np.array([[0.9, 0.2], [0.2, 0.8]]))

    def test_from_stochastic_with_balancing(self):
        coupling = CouplingMatrix.from_stochastic(np.array([[5.0, 1.0], [1.0, 5.0]]),
                                                  balance=True)
        assert np.allclose(coupling.unscaled_residual.sum(axis=0), 0.0)

    def test_from_residual_validates_zero_sums(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_residual(np.array([[0.2, 0.1], [0.1, 0.2]]))

    def test_symmetry_required(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_residual(np.array([[0.1, -0.1], [0.1, -0.1]]))

    def test_at_least_two_classes(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_residual(np.array([[0.0]]))

    def test_positive_epsilon_required(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]),
                                         epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_refused(self, epsilon):
        residual = np.array([[0.1, -0.1], [-0.1, 0.1]])
        with pytest.raises(ValidationError, match="positive and finite"):
            CouplingMatrix.from_residual(residual, epsilon=epsilon)
        with pytest.raises(ValidationError, match="positive and finite"):
            CouplingMatrix.from_residual(residual).scaled(epsilon)

    def test_scaling(self):
        coupling = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]))
        scaled = coupling.scaled(0.5)
        assert scaled.epsilon == 0.5
        assert np.allclose(scaled.residual, 0.5 * coupling.unscaled_residual)
        # The original is unchanged (immutability).
        assert coupling.epsilon == 1.0

    def test_residual_squared(self):
        coupling = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]),
                                                epsilon=2.0)
        assert np.allclose(coupling.residual_squared,
                           coupling.residual @ coupling.residual)

    def test_stochastic_view(self):
        residual = np.array([[0.1, -0.1], [-0.1, 0.1]])
        coupling = CouplingMatrix.from_residual(residual)
        assert np.allclose(coupling.stochastic, residual + 0.5)

    def test_spectral_radius_scales_linearly(self):
        coupling = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]))
        assert coupling.scaled(2.0).spectral_radius() == pytest.approx(
            2.0 * coupling.spectral_radius())
        assert coupling.scaled(2.0).spectral_radius(scaled=False) == pytest.approx(
            coupling.spectral_radius(scaled=False))

    def test_minimum_norm_bounds_radius(self):
        coupling = CouplingMatrix.from_residual(
            np.array([[0.10, -0.04, -0.06], [-0.04, 0.07, -0.03], [-0.06, -0.03, 0.09]]))
        assert coupling.minimum_norm() >= coupling.spectral_radius() - 1e-12

    def test_class_names(self):
        coupling = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]),
                                                class_names=("yes", "no"))
        assert coupling.name_of(0) == "yes"
        unnamed = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]))
        assert unnamed.name_of(1) == "class1"

    def test_class_names_length_checked(self):
        with pytest.raises(ValidationError):
            CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]),
                                         class_names=("only-one",))

    def test_is_homophily(self):
        homophily = CouplingMatrix.from_residual(np.array([[0.1, -0.1], [-0.1, 0.1]]))
        heterophily = CouplingMatrix.from_residual(np.array([[-0.1, 0.1], [0.1, -0.1]]))
        assert homophily.is_homophily()
        assert not heterophily.is_homophily()
