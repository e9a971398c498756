"""Benchmark E4 — Fig. 7b and the SQL columns of Fig. 7c.

Times the relational programs on the stdlib SQLite backend: LinBP
(Algorithm 1, 5 iterations), SBP (Algorithm 2, until termination) — both
from scratch, loading the relations included — and incremental ΔSBP
(Algorithm 3 applied to the 1 permille update workload, starting from a
loaded SBP result).  The paper's shape — SBP faster than relational LinBP,
ΔSBP another factor faster — should show up in the per-group statistics.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.relational import SQLiteBackend

EPSILON = 0.001
ITERATIONS = 5
INDICES = [1, 2]


def _loaded(workload, coupling) -> SQLiteBackend:
    backend = SQLiteBackend()
    backend.load_graph(workload.graph, coupling, workload.explicit)
    return backend


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.benchmark(group="fig7b-linbp-sql")
def test_fig7b_linbp_sql(benchmark, synthetic_workloads, index):
    workload = synthetic_workloads[index - 1]
    coupling = workload.coupling.scaled(EPSILON)

    def run():
        with _loaded(workload, coupling) as backend:
            return backend.run_linbp(num_iterations=ITERATIONS)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["edges"] = workload.num_edges
    assert result.iterations == ITERATIONS


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.benchmark(group="fig7b-sbp-sql")
def test_fig7b_sbp_sql(benchmark, synthetic_workloads, index):
    workload = synthetic_workloads[index - 1]
    coupling = workload.coupling.scaled(EPSILON)

    def run():
        with _loaded(workload, coupling) as backend:
            return backend.run_sbp()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["edges"] = workload.num_edges
    assert result.converged


@pytest.mark.parametrize("index", INDICES)
@pytest.mark.benchmark(group="fig7b-delta-sbp-sql")
def test_fig7b_delta_sbp_sql(benchmark, synthetic_workloads, index):
    workload = synthetic_workloads[index - 1]
    coupling = workload.coupling.scaled(EPSILON)

    with ExitStack() as backends:
        def setup():
            backend = backends.enter_context(_loaded(workload, coupling))
            backend.run_sbp()
            return (backend, workload.explicit_update), {}

        result = benchmark.pedantic(SQLiteBackend.add_explicit_beliefs,
                                    setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["edges"] = workload.num_edges
    assert result.extra["nodes_updated"] >= 0
