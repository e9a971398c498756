"""One element type: every solver path computes and answers in float64.

The engine has no dtype or array-backend argument.  An explicit-belief
matrix of any numeric element type is promoted to float64 at the edge,
so its answer is the float64 answer bit for bit, whichever solver path
(Jacobi or CG ``run_batch``, batched SBP, the core runners, the service)
produces it, and no result names an element type in its ``extra``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core import linbp
from repro.core.convergence import max_epsilon_exact
from repro.core.linbp import LinBP
from repro.core.sbp import SBP
from repro.datasets import kronecker_suite
from repro.engine import (
    BatchWorkspace,
    PropagationPlan,
    clear_plan_cache,
    get_plan,
    run_batch,
)
from repro.engine.sbp_plan import SBPPlan, get_sbp_plan, run_sbp_batch
from repro.service import PropagationService, QuerySpec

#: Element types an integer-valued belief matrix is exactly representable
#: in; the cast back to float64 is lossless, so answers must be identical.
INPUT_DTYPES = [np.float16, np.float32, np.int64]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(scope="module")
def workload():
    return kronecker_suite(max_index=1, seed=0)[0]


def _integer_explicit(num_nodes: int) -> np.ndarray:
    """Centered, integer-valued explicit beliefs on a handful of nodes."""
    explicit = np.zeros((num_nodes, 3))
    rng = np.random.default_rng(3)
    for node in rng.choice(num_nodes, size=12, replace=False):
        explicit[node] = rng.permutation([2.0, -1.0, -1.0])
    return explicit


def _coupling(workload, path):
    """A coupling on which ``path``'s solver answers ``run_batch``.

    CG needs a certified radius past the crossover (0.9 of the Lemma 8
    limit); the other paths run at the workload's own, small scale.
    """
    if path == "cg":
        limit = max_epsilon_exact(workload.graph, workload.coupling)
        return workload.coupling.scaled(0.9 * limit)
    return workload.coupling.scaled(0.05)


def _solve(path, graph, coupling, explicit):
    if path in ("jacobi", "cg"):
        (result,) = run_batch(get_plan(graph, coupling), [explicit])
        assert result.extra["solver"] == path
        return result
    if path == "run_sbp_batch":
        (result,) = run_sbp_batch(graph, coupling, [explicit])
        return result
    if path == "linbp":
        return linbp(graph, coupling, explicit)
    return SBP(graph, coupling).run(explicit)


@pytest.mark.parametrize("path", ["jacobi", "cg", "run_sbp_batch", "linbp",
                                  "sbp_runner"])
@pytest.mark.parametrize("dtype", INPUT_DTYPES)
def test_any_input_dtype_gets_the_float64_answer(workload, path, dtype):
    graph = workload.graph
    coupling = _coupling(workload, path)
    explicit = _integer_explicit(graph.num_nodes)
    expected = _solve(path, graph, coupling, explicit)
    result = _solve(path, graph, coupling, explicit.astype(dtype))
    assert result.beliefs.dtype == np.float64
    assert np.array_equal(result.beliefs, expected.beliefs)
    assert result.iterations == expected.iterations
    assert "dtype" not in result.extra


@pytest.mark.parametrize("method", ["linbp", "linbp*", "sbp"])
def test_service_answers_a_float32_query_in_float64(workload, method):
    graph = workload.graph
    coupling = workload.coupling.scaled(0.05)
    explicit = _integer_explicit(graph.num_nodes)
    service = PropagationService(window_seconds=0.0)
    service.register_graph("g", graph)
    narrow = service.query("g", coupling, explicit.astype(np.float32),
                           QuerySpec(method=method))
    fresh = PropagationService(window_seconds=0.0)
    fresh.register_graph("g", graph)
    wide = fresh.query("g", coupling, explicit, QuerySpec(method=method))
    assert narrow.beliefs.dtype == np.float64
    assert np.array_equal(narrow.beliefs, wide.beliefs)
    assert "dtype" not in narrow.extra


@pytest.mark.parametrize("entry_point", [
    get_plan, PropagationPlan, run_batch, BatchWorkspace, get_sbp_plan,
    SBPPlan, run_sbp_batch, linbp, LinBP, SBP, QuerySpec,
    PropagationService.query,
], ids=lambda entry_point: entry_point.__qualname__)
def test_no_entry_point_takes_an_element_type(entry_point):
    parameters = inspect.signature(entry_point).parameters
    assert not {"dtype", "backend", "precision"} & set(parameters)
    assert not any(parameter.kind is inspect.Parameter.VAR_KEYWORD
                   for parameter in parameters.values())
