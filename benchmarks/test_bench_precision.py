"""Benchmark — mixed-precision SpMM throughput (float32 vs float64).

The LinBP update (Eq. 6) is dominated by one sparse-matrix × dense-block
product per iteration, and that product is memory-bandwidth-bound: the
CSR adjacency and the stacked belief block stream through the cache
hierarchy once per sweep.  Halving the bytes (float32) should therefore
buy close to 2× throughput — this module measures exactly that on the
kernel the engine runs, :func:`repro.engine.kernels.spmm`, over a
width-32 stacked block (the shape a ten-query batch of a 3-class
problem actually feeds it).

Two benchmark records are kept in ``BENCH_precision.json``:

* ``test_precision_spmm_float64`` — the exact-arithmetic baseline;
* ``test_precision_spmm_float32`` — the certified fast path.  In full
  mode this test also *asserts* float32 ≥ 1.5× float64 (the claim that
  justifies the Lemma-8 certification machinery); in smoke mode
  (``REPRO_BENCH_SMOKE=1``) the workload is too small for bandwidth to
  dominate, so only the numerical-equivalence assertion runs.

Both dtypes must agree to float32 round-off at every size.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from benchmarks.conftest import attach_table, time_pairs
from repro.engine.kernels import spmm
from repro.experiments.runner import ResultTable

#: The CI bench-smoke job (scripts/bench_record.py --smoke) cannot gate
#: on bandwidth ratios: the smoke graph fits in cache and shared runners
#: time noisily.  Smoke mode asserts numerical equivalence only.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_NODES = 5_000 if SMOKE else 150_000
AVG_DEGREE = 15
#: Ten 3-class queries stacked — the block width the batched engine uses.
BLOCK_WIDTH = 32
ASSERTED_SPEEDUP = 1.5
#: Interleaved (float64, float32) pairs the gate is judged on (one
#: full-size SpMM per sample takes tens of milliseconds).
NUM_PAIRS = 10

_state = {}


def _workload():
    """One random CSR adjacency + stacked dense block, built once."""
    if not _state:
        rng = np.random.default_rng(11)
        nnz = NUM_NODES * AVG_DEGREE
        rows = rng.integers(0, NUM_NODES, nnz)
        cols = rng.integers(0, NUM_NODES, nnz)
        data = rng.uniform(0.5, 1.5, nnz)
        adjacency = sp.csr_matrix((data, (rows, cols)),
                                  shape=(NUM_NODES, NUM_NODES))
        adjacency.sum_duplicates()
        block = rng.standard_normal((NUM_NODES, BLOCK_WIDTH))
        _state["f64"] = (adjacency, np.ascontiguousarray(block),
                         np.empty_like(block))
        _state["f32"] = (adjacency.astype(np.float32),
                         np.ascontiguousarray(block, dtype=np.float32),
                         np.empty((NUM_NODES, BLOCK_WIDTH), dtype=np.float32))
    return _state


def test_precision_spmm_float64(benchmark):
    """Exact float64 SpMM over the width-32 stacked block (baseline)."""
    adjacency, block, out = _workload()["f64"]
    spmm(adjacency, block, out)  # warm caches / allocator
    benchmark.pedantic(lambda: spmm(adjacency, block, out),
                       rounds=5, iterations=3)


def test_precision_spmm_float32(benchmark):
    """Certified float32 SpMM: equivalent results, ≥ 1.5× throughput."""
    state = _workload()
    adjacency64, block64, out64 = state["f64"]
    adjacency32, block32, out32 = state["f32"]
    spmm(adjacency64, block64, out64)
    spmm(adjacency32, block32, out32)
    # Equivalence first: float32 must match float64 to its own round-off
    # (relative to the result magnitude and the dot-product length).
    scale = max(float(np.abs(out64).max()), 1.0)
    max_error = float(np.abs(out32.astype(np.float64) - out64).max())
    tolerance = np.finfo(np.float32).eps * AVG_DEGREE * 8 * scale
    assert max_error <= tolerance, (
        f"float32 SpMM deviates {max_error:.3e} from float64 "
        f"(allowed {tolerance:.3e})")
    times = time_pairs(lambda: spmm(adjacency64, block64, out64),
                       lambda: spmm(adjacency32, block32, out32),
                       pairs=NUM_PAIRS)
    table = ResultTable("Mixed-precision SpMM — width-32 stacked block, "
                        f"{NUM_PAIRS} interleaved pairs")
    table.add_row(nodes=NUM_NODES, nnz=int(adjacency64.nnz),
                  width=BLOCK_WIDTH,
                  float64_ms=min(times.baseline) * 1e3,
                  float32_ms=min(times.candidate) * 1e3,
                  **times.columns(), max_error=max_error)
    benchmark.pedantic(lambda: spmm(adjacency32, block32, out32),
                       rounds=5, iterations=3)
    attach_table(benchmark, table)
    if not SMOKE:
        assert times.best >= ASSERTED_SPEEDUP, (
            f"float32 SpMM only {times.best:.2f}x faster than float64 in "
            f"the best of {NUM_PAIRS} interleaved pairs (need >= "
            f"{ASSERTED_SPEEDUP}x) - the mixed-precision fast path is not "
            f"paying for itself on this host; {times.describe()}")
