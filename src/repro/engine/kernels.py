"""Buffer-reuse numerical kernels for the propagation engine.

The LinBP update (Eq. 6) is three products — one sparse-times-dense
(``A @ B``), two small dense GEMMs (``· @ Ĥ`` and ``· @ Ĥ²``) — plus
element-wise combines; conjugate gradients in ``Ĥ``'s eigenbasis need one
sparse-times-vector product per class instead (:func:`spmv`).  Run
naively, every iteration allocates a fresh ``n x k`` array per product;
at high query rates the allocator, not the FPU, becomes the bottleneck.
The kernels here write every product into a caller-provided output
buffer so a whole propagation runs on a fixed set of preallocated arrays
(see :class:`repro.engine.batch.BatchWorkspace`).

The sparse products have two tiers, tried in order:

1. ``scipy.sparse._sparsetools.csr_matvecs`` and ``csr_matvec`` (the C++
   routines behind ``csr_matrix.__matmul__``), which accumulate
   ``Y += A @ X`` into an existing row-major buffer.  Because the symbols
   are private, their availability is probed once at import time
   (:data:`HAVE_INPLACE_SPMM`).
2. The allocating ``A @ X``, should a scipy release move them.

Every kernel runs in its operands' own dtype, and :func:`spmm` and
:func:`spmv` require them to agree — enforced with a clear error, because
the allocating ``csr @ dense`` path would otherwise *silently upcast* on
a mismatch and scribble the wider result into a narrower buffer.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

__all__ = ["HAVE_INPLACE_SPMM", "spmm", "spmv", "block_matmul",
           "tile_rows", "scale_rows", "max_abs_change_per_query",
           "dot_per_query"]

try:  # pragma: no cover - import probing
    from scipy.sparse import _sparsetools as _tools
    _csr_matvecs = getattr(_tools, "csr_matvecs", None)
    _csr_matvec = getattr(_tools, "csr_matvec", None)
except ImportError:  # pragma: no cover - very old/new scipy layouts
    _csr_matvecs = _csr_matvec = None

#: True when the zero-allocation CSR SpMM and SpMV paths are available.
HAVE_INPLACE_SPMM = _csr_matvecs is not None and _csr_matvec is not None


def _check_dtypes(kernel: str, csr, dense, out) -> None:
    """Reject dtype disagreement before any product runs.

    The compiled in-place routine is dtype-templated (mixing operand
    widths would corrupt the output buffer), and the allocating
    ``csr @ dense`` fallback would silently upcast and cast back.  One
    explicit guard keeps both tiers honest.
    """
    if not (csr.dtype == dense.dtype == out.dtype):
        raise ValidationError(
            f"{kernel} dtype mismatch: sparse matrix is {csr.dtype}, dense "
            f"operand is {dense.dtype}, out buffer is {out.dtype}")


def spmm(csr: sp.csr_matrix, dense: np.ndarray, out: np.ndarray,
         accumulate: bool = False) -> np.ndarray:
    """``out <- csr @ dense`` (or ``out += ...``) into the preallocated buffer.

    ``dense`` and ``out`` must be C-contiguous 2-D arrays of matching dtype
    (which must also match ``csr.data`` — enforced, see above).  With
    ``accumulate=True`` the product is added onto the existing contents
    of ``out`` — the engine uses this to fuse the ``Ê +`` term of the LinBP
    update into the sparse product for free (the underlying C routine is
    accumulating by nature; the non-accumulating form just zeroes first).
    Returns ``out`` for chaining.
    """
    _check_dtypes("spmm", csr, dense, out)
    if HAVE_INPLACE_SPMM and out.flags.c_contiguous \
            and dense.flags.c_contiguous:
        if not accumulate:
            out[...] = 0
        _csr_matvecs(csr.shape[0], csr.shape[1], dense.shape[1],
                     csr.indptr, csr.indices, csr.data,
                     dense.reshape(-1), out.reshape(-1))
        return out
    if accumulate:
        out += csr @ dense
    else:
        out[...] = csr @ dense
    return out


def spmv(csr: sp.csr_matrix, vector: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """``out <- csr @ vector`` into the preallocated vector.

    The one-column form of :func:`spmm`, with the same dtype guard and
    fallback: ``vector`` and ``out`` are contiguous 1-D arrays.  scipy's
    ``csr_matvec`` sums each row over its stored entries in index order,
    so an output element depends on the matrix and ``vector`` alone.
    Returns ``out``.
    """
    _check_dtypes("spmv", csr, vector, out)
    if HAVE_INPLACE_SPMM and out.flags.c_contiguous \
            and vector.flags.c_contiguous:
        out.fill(0.0)
        _csr_matvec(csr.shape[0], csr.shape[1], csr.indptr, csr.indices,
                    csr.data, vector, out)
        return out
    out[...] = csr @ vector
    return out


def block_matmul(block: np.ndarray, small: np.ndarray, out: np.ndarray,
                 num_classes: int) -> np.ndarray:
    """Per-query right-multiplication ``out <- block ·_k small``.

    ``block`` and ``out`` are ``n x (q·k)`` matrices whose columns are ``q``
    consecutive ``k``-wide query blocks; ``small`` is the shared ``k x k``
    coupling factor.  Because the blocks are contiguous, the batched product
    is a single GEMM on the ``(n·q) x k`` reshaped view — no per-query loop,
    no allocation.
    """
    n, qk = block.shape
    tall = block.reshape(n * (qk // num_classes), num_classes)
    np.matmul(tall, small, out=out.reshape(tall.shape))
    return out


def tile_rows(factors: np.ndarray, width: int) -> np.ndarray:
    """``factors`` repeated across ``width`` columns, for :func:`scale_rows`."""
    return np.repeat(factors, width).reshape(factors.shape[0], width)


def scale_rows(tiled: np.ndarray, block: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """``out <- diag(factors) @ block`` (row scaling) without allocation.

    ``tiled`` is ``tile_rows(factors, width)`` for the block's width, built
    once per workspace: one contiguous multiply then scales the block,
    where broadcasting ``factors[:, None]`` runs numpy's inner loop over
    one row of ``k`` elements at a time.  Every element is the same single
    product either way.
    """
    np.multiply(tiled, block, out=out)
    return out


def max_abs_change_per_query(new: np.ndarray, old: np.ndarray,
                             scratch: np.ndarray,
                             num_classes: int) -> np.ndarray:
    """Maximum absolute difference per ``k``-wide query block.

    Computes ``max |new - old|`` separately for each of the ``q`` stacked
    queries, using ``scratch`` (same shape) as the only working memory.
    The reduction runs over axis 0 first (a fast contiguous column
    reduction) and only then folds the ``k`` columns of each query.
    Returns a fresh length-``q`` vector in the buffers' dtype (tiny; the
    only allocation in the iteration loop).
    """
    n, qk = scratch.shape
    num_queries = qk // num_classes
    if n == 0:
        return np.zeros(num_queries, dtype=scratch.dtype)
    np.subtract(new, old, out=scratch)
    np.abs(scratch, out=scratch)
    if num_queries == 1:
        # Single query: one flat (contiguous) reduction is fastest.
        return np.array([scratch.max()])
    column_max = scratch.max(axis=0)
    return column_max.reshape(num_queries, num_classes).max(axis=1)


def dot_per_query(left: np.ndarray, right: np.ndarray,
                  num_classes: int) -> np.ndarray:
    """Frobenius inner product ``⟨left_j, right_j⟩`` of every ``k``-wide block.

    ``einsum`` accumulates each column down the rows in one fixed order,
    whatever the width of the block, and the ``k`` column sums of a query
    are then added in class order — so a query's product is bit for bit
    the same alone and at any position of any batch.  (A BLAS ``ones @
    (left * right)`` would block the rows by the batch width.)  Returns a
    fresh length-``q`` vector, without touching the operands.
    """
    columns = np.einsum("ij,ij->j", left, right)
    return columns.reshape(-1, num_classes).sum(axis=1)
