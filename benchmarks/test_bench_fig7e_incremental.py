"""Benchmark E6 — Fig. 7e: incremental ΔSBP vs SBP from scratch.

Regenerates the crossover plot: with few new labels ΔSBP wins, as the
fraction of new labels grows its cost approaches (and eventually exceeds) a
full recomputation.

The table times each run once.  At 2% new labels ΔSBP takes about 1 ms
against about 3 ms for SBP from scratch, so one preemption can invert a
single sample; the gate therefore times the two runs in :data:`PAIRS`
interleaved rounds (:func:`benchmarks.conftest.sample_pairs`) and reads
the median round.
"""

from __future__ import annotations

from benchmarks.conftest import attach_table, sample_pairs
from repro.experiments import incremental_arms, run_incremental_beliefs

FRACTIONS = (0.02, 0.1, 0.3, 0.6, 1.0)
#: Interleaved rounds of the smallest fraction; the gate reads the median.
PAIRS = 11


def test_fig7e_incremental_beliefs(benchmark, bench_max_index):
    graph_index = min(bench_max_index, 3)
    table = benchmark.pedantic(
        run_incremental_beliefs,
        kwargs={"graph_index": graph_index, "new_fractions": FRACTIONS,
                "engine": "memory"},
        rounds=1, iterations=1)
    attach_table(benchmark, table)
    # The repaired region grows monotonically with the update fraction, and
    # for the smallest fraction the incremental update must beat the full
    # recomputation (the left side of the paper's crossover plot).
    repaired = [row["nodes_updated"] for row in table]
    assert repaired == sorted(repaired)
    scratch, delta = incremental_arms(graph_index, FRACTIONS[0], "memory")
    rounds = sample_pairs(scratch, delta, PAIRS)
    assert rounds.median > 1.0, (
        f"ΔSBP at {FRACTIONS[0]:.0%} new labels not faster than SBP from "
        f"scratch in the median of {PAIRS} rounds; {rounds.describe()}")
