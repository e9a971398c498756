"""Kernel-level guarantees: spmm/spmv dtype guard, fallback tier,
dtype-neutral fills, tiled row scaling."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import kernels
from repro.exceptions import ValidationError


def _operands(dtype, n: int = 25, width: int = 6, seed: int = 9):
    rng = np.random.default_rng(seed)
    matrix = sp.random(n, n, density=0.25, random_state=seed,
                       format="csr").astype(dtype)
    dense = np.ascontiguousarray(rng.standard_normal((n, width)),
                                 dtype=dtype)
    out = np.empty((n, width), dtype=dtype)
    return matrix, dense, out


class TestDtypeGuard:
    def test_mixed_operand_dtypes_rejected_with_named_dtypes(self):
        matrix, dense, out = _operands(np.float64)
        with pytest.raises(ValidationError) as excinfo:
            kernels.spmm(matrix, dense.astype(np.float32), out)
        message = str(excinfo.value)
        assert "dtype mismatch" in message
        assert "float64" in message and "float32" in message

    def test_mismatched_out_buffer_rejected(self):
        matrix, dense, out = _operands(np.float32)
        with pytest.raises(ValidationError):
            kernels.spmm(matrix, dense, out.astype(np.float64))

    def test_matching_float32_operands_accepted(self):
        matrix, dense, out = _operands(np.float32)
        kernels.spmm(matrix, dense, out)
        assert out.dtype == np.float32
        assert np.allclose(out, matrix @ dense, atol=1e-5)


class TestZeroFill:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_accumulating_spmm_overwrites_poisoned_buffer(self, dtype):
        matrix, dense, out = _operands(dtype)
        out.fill(np.nan)
        kernels.spmm(matrix, dense, out)
        assert np.isfinite(out).all()
        assert out.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accumulate_adds_onto_existing_contents(self, dtype):
        matrix, dense, out = _operands(dtype)
        product = kernels.spmm(matrix, dense, out).copy()
        kernels.spmm(matrix, dense, out, accumulate=True)
        assert np.allclose(out, 2 * product, atol=1e-5)


class TestFallbackTiers:
    """The engine must survive losing the private scipy symbol."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_generic_fallback_matches_inplace_path(self, dtype, monkeypatch):
        matrix, dense, out = _operands(dtype)
        fast = kernels.spmm(matrix, dense, out).copy()
        monkeypatch.setattr(kernels, "HAVE_INPLACE_SPMM", False)
        slow = kernels.spmm(matrix, dense, np.empty_like(out))
        # Same scipy accumulation loop underneath - bitwise identical.
        assert np.array_equal(fast, slow)

    def test_generic_fallback_accumulates(self, monkeypatch):
        matrix, dense, out = _operands(np.float64)
        expected = kernels.spmm(matrix, dense, out).copy()
        monkeypatch.setattr(kernels, "HAVE_INPLACE_SPMM", False)
        accumulated = expected.copy()
        kernels.spmm(matrix, dense, accumulated, accumulate=True)
        assert np.allclose(accumulated, 2 * expected)

    def test_whole_batch_run_identical_without_inplace_spmm(self, monkeypatch):
        from repro.coupling import synthetic_residual_matrix
        from repro.engine import clear_plan_cache, get_plan, run_batch
        from repro.graphs import random_graph

        graph = random_graph(40, 0.12, seed=7)
        coupling = synthetic_residual_matrix(epsilon=0.05)
        rng = np.random.default_rng(11)
        explicit = np.zeros((graph.num_nodes, 3))
        for node in rng.choice(graph.num_nodes, size=6, replace=False):
            values = rng.uniform(-0.1, 0.1, size=2)
            explicit[node] = [values[0], values[1], -values.sum()]
        clear_plan_cache()
        fast = run_batch(get_plan(graph, coupling), [explicit])[0]
        monkeypatch.setattr(kernels, "HAVE_INPLACE_SPMM", False)
        clear_plan_cache()
        slow = run_batch(get_plan(graph, coupling), [explicit])[0]
        clear_plan_cache()
        # The generic path adds the explicit term after (not inside) the
        # sparse accumulation, so rounding differs in the last bits - the
        # runs must still agree far below the engine tolerance.
        assert np.abs(fast.beliefs - slow.beliefs).max() < 1e-13
        assert fast.iterations == slow.iterations


class TestSpmv:
    def test_overwrites_a_poisoned_buffer_with_the_sparse_product(self):
        matrix, dense, _ = _operands(np.float64)
        vector = np.ascontiguousarray(dense[:, 0])
        out = np.full(vector.shape, np.nan)
        kernels.spmv(matrix, vector, out)
        assert np.array_equal(out, matrix @ vector)

    def test_dtype_mismatch_rejected(self):
        matrix, dense, _ = _operands(np.float64)
        vector = np.ascontiguousarray(dense[:, 0])
        with pytest.raises(ValidationError, match="spmv dtype mismatch"):
            kernels.spmv(matrix, vector.astype(np.float32), np.empty(25))

    def test_generic_fallback_matches_inplace_path(self, monkeypatch):
        matrix, dense, _ = _operands(np.float64)
        vector = np.ascontiguousarray(dense[:, 0])
        fast = kernels.spmv(matrix, vector, np.empty(25)).copy()
        monkeypatch.setattr(kernels, "HAVE_INPLACE_SPMM", False)
        slow = kernels.spmv(matrix, vector, np.full(25, np.nan))
        assert np.array_equal(fast, slow)


class TestScaleRows:
    @pytest.mark.parametrize("width", [1, 3, 48])
    def test_tiled_factors_equal_the_broadcast_bit_for_bit(self, width):
        rng = np.random.default_rng(4)
        factors = rng.uniform(0.0, 9.0, 37)
        block = rng.standard_normal((37, width))
        out = np.empty_like(block)
        kernels.scale_rows(kernels.tile_rows(factors, width), block, out)
        assert np.array_equal(out, factors[:, None] * block)


class TestMaxAbsChange:
    def test_empty_graph_returns_buffer_dtype(self):
        for dtype in (np.float32, np.float64):
            scratch = np.empty((0, 6), dtype=dtype)
            deltas = kernels.max_abs_change_per_query(
                np.empty((0, 6), dtype=dtype), np.empty((0, 6), dtype=dtype),
                scratch, num_classes=3)
            assert deltas.shape == (2,)
            assert deltas.dtype == dtype
            assert not deltas.any()

    @pytest.mark.parametrize("num_queries", [1, 3])
    def test_per_query_maxima_keep_dtype(self, num_queries):
        rng = np.random.default_rng(2)
        new = rng.standard_normal((8, 2 * num_queries)).astype(np.float32)
        old = rng.standard_normal((8, 2 * num_queries)).astype(np.float32)
        deltas = kernels.max_abs_change_per_query(
            new, old, np.empty_like(new), num_classes=2)
        assert deltas.dtype == np.float32
        expected = np.abs(new - old).reshape(8, num_queries, 2)
        assert deltas == pytest.approx(expected.max(axis=(0, 2)))
