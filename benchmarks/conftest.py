"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  Two
kinds of benchmarks coexist:

* *timing* benchmarks (Fig. 7a/7b/7d/7e, Fig. 10) use the ``benchmark``
  fixture directly on the algorithm under test, so pytest-benchmark's
  statistics are the reproduced series;
* *quality / analysis* benchmarks (Fig. 4, Fig. 7f/7g, Fig. 11, Appendix G)
  run the corresponding experiment module once inside the benchmark and
  attach the resulting table via ``benchmark.extra_info`` (also printed to
  stdout with ``-s``).

The workload sizes default to the small end of the paper's suite so the whole
harness finishes in minutes; pass ``--bench-max-index`` to grow them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np
import pytest

from repro.datasets import kronecker_suite


def pytest_addoption(parser):
    parser.addoption(
        "--bench-max-index", action="store", type=int, default=3,
        help="largest Kronecker workload index (1-9) used by scalability benches")


@pytest.fixture(scope="session")
def bench_max_index(request) -> int:
    """Largest synthetic workload index used by the scalability benchmarks."""
    return request.config.getoption("--bench-max-index")


@pytest.fixture(scope="session")
def synthetic_workloads(bench_max_index):
    """The Fig. 6a workload suite, generated once per benchmark session."""
    return kronecker_suite(max_index=bench_max_index, seed=0)


def attach_table(benchmark, table) -> None:
    """Store a ResultTable on the benchmark record and echo it to stdout."""
    benchmark.extra_info["table"] = table.rows
    print()
    print(table.to_text())


@dataclass
class PairedTimes:
    """Seconds per sample of two arms timed in interleaved pairs."""

    baseline: List[float]
    candidate: List[float]

    @property
    def ratios(self) -> List[float]:
        """``baseline / candidate`` per pair: the candidate's speedup."""
        return [slow / fast for slow, fast in zip(self.baseline,
                                                  self.candidate)]

    @property
    def best(self) -> float:
        """The best pair ratio, the statistic ratio gates are judged on."""
        return max(self.ratios)

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    def columns(self) -> dict:
        """The best and median pair ratios and every pair, as table columns."""
        return {"speedup": self.best, "median_speedup": self.median,
                "pair_ratios": " ".join(f"{ratio:.2f}"
                                        for ratio in self.ratios)}

    def describe(self) -> str:
        """Every pair ratio and their median, for failure messages."""
        ratios = ", ".join(f"{ratio:.2f}" for ratio in self.ratios)
        return f"pair ratios {ratios}; median {self.median:.2f}"


def sample_pairs(baseline: Callable[[], float],
                 candidate: Callable[[], float],
                 pairs: int = 10) -> PairedTimes:
    """Interleaved pairs of two arms that time themselves.

    Each call of an arm returns the seconds it measured, so an arm can
    keep its set-up (opening a database, building the state an update
    repairs) out of its sample.  The arm that goes first alternates, so
    both samples of a pair run under near-identical machine state and
    host drift between pairs cannot open or close the gap the way it
    can between two blocks of samples.
    """
    arms = (baseline, candidate)
    samples: tuple = ([], [])
    for index in range(pairs):
        for arm in ((0, 1) if index % 2 == 0 else (1, 0)):
            samples[arm].append(arms[arm]())
    return PairedTimes(baseline=samples[0], candidate=samples[1])


def time_pairs(baseline: Callable[[], object], candidate: Callable[[], object],
               pairs: int = 10, repetitions: int = 1) -> PairedTimes:
    """Time two arms in interleaved pairs (:func:`sample_pairs`).

    Each sample runs its arm ``repetitions`` times back to back.  A true
    speedup bounds every pair ratio from below, so speedup gates read
    the best pair.
    """
    def timed(arm: Callable[[], object]) -> Callable[[], float]:
        def sample() -> float:
            start = time.perf_counter()
            for _ in range(repetitions):
                arm()
            return time.perf_counter() - start
        return sample

    return sample_pairs(timed(baseline), timed(candidate), pairs)


def repeated(function: Callable[[], object],
             repetitions: int) -> Callable[[], None]:
    """``function`` run ``repetitions`` times as one benchmark round.

    Recorded baselines sit under ``scripts/bench_record.py``'s 2 ms noise
    floor when one call takes well under 10 ms, and a 20% regression can
    then never fail them; rounds of enough repetitions lift each recorded
    minimum above 10 ms.
    """
    def rounds() -> None:
        for _ in range(repetitions):
            function()
    return rounds
