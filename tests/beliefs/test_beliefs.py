"""Unit tests for belief matrices, standardization and top-belief assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.beliefs import (
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
from repro.exceptions import ValidationError


class TestStandardize:
    """The three worked examples below Definition 11."""

    def test_two_elements(self):
        assert np.allclose(standardize(np.array([1.0, 0.0])), [1.0, -1.0])

    def test_constant_vector_maps_to_zero(self):
        assert np.allclose(standardize(np.array([1.0, 1.0, 1.0])), [0.0, 0.0, 0.0])

    def test_five_elements(self):
        result = standardize(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(result, [2.0, -0.5, -0.5, -0.5, -0.5])

    def test_scale_invariance(self):
        vector = np.array([4.0, -1.0, -1.0, -1.0, -1.0])
        assert np.allclose(standardize(vector), standardize(10.0 * vector))

    def test_paper_example_same_standardization(self):
        # b_s = [4,-1,-1,-1,-1] and b_t = [40,-10,-10,-10,-10] standardize equally.
        b_s = np.array([4.0, -1.0, -1.0, -1.0, -1.0])
        b_t = 10.0 * b_s
        assert np.allclose(standardize(b_s), standardize(b_t))
        assert np.allclose(standardize(b_s), [2.0, -0.5, -0.5, -0.5, -0.5])


class TestCentering:
    def test_center_and_uncenter_roundtrip(self):
        probabilities = np.array([[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]])
        centered = center_probability_matrix(probabilities)
        assert np.allclose(centered.sum(axis=1), 0.0)
        assert np.allclose(uncenter_residual_matrix(centered), probabilities)

    def test_center_requires_2d(self):
        with pytest.raises(ValidationError):
            center_probability_matrix(np.zeros(3))
        with pytest.raises(ValidationError):
            uncenter_residual_matrix(np.zeros(3))


class TestExplicitBeliefConstruction:
    def test_probabilities_from_labels(self):
        beliefs = explicit_beliefs_from_labels({0: 1}, num_nodes=3, num_classes=2,
                                               confidence=0.9)
        assert np.allclose(beliefs[0], [0.1, 0.9])
        assert np.allclose(beliefs[1], [0.5, 0.5])
        assert np.allclose(beliefs.sum(axis=1), 1.0)

    def test_residuals_from_labels_rows_sum_to_zero(self):
        residuals = explicit_residuals_from_labels({1: 2}, num_nodes=3, num_classes=3,
                                                   magnitude=0.3)
        assert np.allclose(residuals[1], [-0.15, -0.15, 0.3])
        assert np.allclose(residuals[0], 0.0)
        assert np.allclose(residuals.sum(axis=1), 0.0)

    def test_invalid_confidence(self):
        with pytest.raises(ValidationError):
            explicit_beliefs_from_labels({0: 0}, 2, 2, confidence=0.0)
        with pytest.raises(ValidationError):
            explicit_beliefs_from_labels({0: 0}, 2, 2, confidence=1.5)

    def test_invalid_magnitude(self):
        with pytest.raises(ValidationError):
            explicit_residuals_from_labels({0: 0}, 2, 2, magnitude=-0.1)

    def test_out_of_range_node_and_label(self):
        with pytest.raises(ValidationError):
            explicit_residuals_from_labels({5: 0}, 2, 2)
        with pytest.raises(ValidationError):
            explicit_residuals_from_labels({0: 7}, 2, 2)
        with pytest.raises(ValidationError):
            explicit_beliefs_from_labels({5: 0}, 2, 2)


class TestTopBeliefSets:
    def test_unique_maxima(self):
        beliefs = np.array([[0.2, -0.1, -0.1], [-0.3, 0.4, -0.1]])
        assert top_belief_sets(beliefs) == [{0}, {1}]

    def test_ties_are_kept(self):
        beliefs = np.array([[0.2, 0.2, -0.4]])
        assert top_belief_sets(beliefs) == [{0, 1}]

    def test_near_ties_within_tolerance(self):
        beliefs = np.array([[0.2, 0.2 - 1e-14, -0.4]])
        assert top_belief_sets(beliefs, tie_tolerance=1e-10) == [{0, 1}]

    def test_zero_rows_skipped_or_full(self):
        beliefs = np.zeros((1, 3))
        assert top_belief_sets(beliefs) == [set()]
        assert top_belief_sets(beliefs, skip_all_zero=False) == [{0, 1, 2}]

    def test_requires_2d(self):
        with pytest.raises(ValidationError):
            top_belief_sets(np.zeros(3))


class TestBeliefMatrix:
    def test_from_labels(self):
        matrix = BeliefMatrix.from_labels({0: 0, 2: 1}, num_nodes=3, num_classes=2)
        assert matrix.num_nodes == 3 and matrix.num_classes == 2
        assert set(matrix.labeled_nodes().tolist()) == {0, 2}

    def test_from_probabilities(self):
        matrix = BeliefMatrix.from_probabilities(np.array([[0.7, 0.3], [0.5, 0.5]]))
        assert np.allclose(matrix.residuals, [[0.2, -0.2], [0.0, 0.0]])

    def test_probabilities_view(self):
        matrix = BeliefMatrix(np.array([[0.2, -0.2]]))
        assert np.allclose(matrix.probabilities, [[0.7, 0.3]])

    def test_standardized_rows(self):
        matrix = BeliefMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        standardized = matrix.standardized()
        assert np.allclose(standardized[0], [1.0, -1.0])
        assert np.allclose(standardized[1], [0.0, 0.0])

    def test_standard_deviations(self):
        matrix = BeliefMatrix(np.array([[1.0, -1.0], [2.0, -2.0]]))
        assert np.allclose(matrix.standard_deviations(), [1.0, 2.0])

    def test_hard_labels_with_unlabeled(self):
        matrix = BeliefMatrix(np.array([[0.1, -0.1], [0.0, 0.0], [-0.3, 0.3]]))
        assert matrix.hard_labels().tolist() == [0, -1, 1]

    def test_scaling_lemma_12(self):
        # Scaling residuals does not change the standardized assignment.
        matrix = BeliefMatrix(np.array([[0.4, -0.1, -0.3]]))
        scaled = matrix.scaled(7.0)
        assert np.allclose(matrix.standardized(), scaled.standardized())
        assert np.allclose(scaled.residuals, 7.0 * matrix.residuals)

    def test_copy_is_independent(self):
        matrix = BeliefMatrix(np.array([[0.1, -0.1]]))
        duplicate = matrix.copy()
        duplicate.residuals[0, 0] = 99.0
        assert matrix.residuals[0, 0] == pytest.approx(0.1)

    def test_requires_2d(self):
        with pytest.raises(ValidationError):
            BeliefMatrix(np.zeros(4))


class TestCheckedExplicit:
    def test_float64_input_comes_back_as_is(self):
        explicit = np.zeros((4, 3))
        assert checked_explicit(explicit, 4, 3) is explicit
        promoted = checked_explicit(np.zeros((4, 3), dtype=np.int64), 4, 3)
        assert promoted.dtype == np.float64

    @pytest.mark.parametrize("explicit, fragment", [
        (np.zeros((4, 2)), "must be a 4 x 3 matrix, got shape (4, 2)"),
        (np.zeros((3, 3)), "must be a 4 x 3 matrix, got shape (3, 3)"),
        (np.zeros(12), "got shape (12,)"),
        ([["a", "b", "c"]] * 4, "must be a numeric matrix"),
    ])
    def test_wrong_shapes_and_values_are_named(self, explicit, fragment):
        with pytest.raises(ValidationError) as raised:
            checked_explicit(explicit, 4, 3)
        assert fragment in str(raised.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_cell_is_named(self, value):
        explicit = np.zeros((4, 3))
        explicit[2, 1] = value
        explicit[3, 0] = value
        with pytest.raises(ValidationError,
                           match=f"belief value {value} for node 2 class 1 "
                                 "is not finite"):
            checked_explicit(explicit, 4, 3)

    def test_any_column_count_without_num_classes(self):
        assert checked_explicit(np.zeros((4, 5)), 4, None).shape == (4, 5)
        with pytest.raises(ValidationError, match="4 x k matrix"):
            checked_explicit(np.zeros((3, 5)), 4, None)


class TestCheckedUpdate:
    def test_matrix_gives_its_non_zero_rows_in_ascending_order(self):
        update = np.zeros((5, 3))
        update[4] = [0.2, -0.1, -0.1]
        update[1] = [-0.1, 0.2, -0.1]
        nodes, rows = checked_update(update, 5, 3)
        assert nodes.tolist() == [1, 4]
        assert np.array_equal(rows, update[[1, 4]])

    def test_mapping_keeps_its_order_and_its_zero_rows(self):
        update = {3: [0.2, -0.1, -0.1], 0: np.zeros(3), 2.0: (1, 0, -1)}
        nodes, rows = checked_update(update, 5, 3)
        assert nodes.dtype == np.int64 and nodes.tolist() == [3, 0, 2]
        assert rows.dtype == np.float64
        assert np.array_equal(rows, [[0.2, -0.1, -0.1], [0, 0, 0], [1, 0, -1]])

    def test_empty_updates(self):
        for update in ({}, np.zeros((5, 3))):
            nodes, rows = checked_update(update, 5, 3)
            assert nodes.size == 0 and rows.shape == (0, 3)

    @pytest.mark.parametrize("update, fragment", [
        ({-1: [0.2, -0.1, -0.1]}, "node -1 out of range [0, 5)"),
        ({5: [0.2, -0.1, -0.1]}, "node 5 out of range [0, 5)"),
        ({1: [0.2, -0.2]}, "belief vector for node 1 must have length 3"),
        ({"x": [0.2, -0.1, -0.1]}, "node 'x' needs an integer id"),
        ({1: ["a", 0, 0]}, "node 1 needs an integer id and a numeric"),
        ({1: [0.1, 0.0, 0.0], 4: [0.0, np.nan, 0.0]},
         "belief value nan for node 4 class 1 is not finite"),
        (np.zeros((4, 3)), "must be a 5 x 3 matrix, got shape (4, 3)"),
    ])
    def test_malformed_updates_are_named(self, update, fragment):
        with pytest.raises(ValidationError) as raised:
            checked_update(update, 5, 3)
        assert fragment in str(raised.value)

    def test_any_row_length_without_num_classes(self):
        nodes, rows = checked_update({1: [1.0, -1.0], 2: [0.5, -0.5]}, 5,
                                     None)
        assert nodes.tolist() == [1, 2] and rows.shape == (2, 2)
        with pytest.raises(ValidationError, match="must have length 2"):
            checked_update({1: [1.0, -1.0], 2: [1.0, 0.0, -1.0]}, 5, None)
