"""Cross-backend differential property suite for the SQL execution backends.

The backends under :mod:`repro.relational.backends` claim *identical*
semantics to the in-memory engines — not just similar beliefs, but the
same iteration counts and convergence flags, query by query.  These tests
generate small random graphs, convergent couplings and sparse label sets
with hypothesis and assert, on every example:

    run_batch()  ≡  sqlite backend  ≡  duckdb backend

(DuckDB joins the comparison only when the optional package is installed;
the SQLite equality must hold everywhere.)  SBP and ΔSBP are compared with
run_sbp_batch and the in-memory SBP runner the same way.  Beliefs agree
to 1e-10;
iteration counts and convergence flags agree exactly, except when the
deciding sweep's max change lands on the tolerance boundary itself — see
``_assert_convergence_agrees``.

``derandomize=True`` keeps the suite reproducible in CI: the examples are
drawn deterministically from the test's source, so a red run is always
re-runnable locally.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import SBP
from repro.coupling import CouplingMatrix
from repro.engine.batch import run_batch
from repro.engine.plan import get_plan
from repro.engine.sbp_plan import run_sbp_batch
from repro.graphs import Graph
from repro.relational.backends import BACKENDS, available_backends, get_backend

TOLERANCE = 1e-10


@st.composite
def cross_engine_workloads(draw):
    """A small random graph, a convergent coupling, and sparse labels."""
    num_nodes = draw(st.integers(min_value=3, max_value=10))
    num_classes = draw(st.integers(min_value=2, max_value=3))
    pairs = st.tuples(st.integers(min_value=0, max_value=num_nodes - 1),
                      st.integers(min_value=0, max_value=num_nodes - 1))
    raw_edges = draw(st.lists(pairs, min_size=1, max_size=2 * num_nodes))
    edges = [(s, t) for s, t in raw_edges if s != t]
    assume(edges)
    weighted = draw(st.booleans())
    if weighted:
        edges = [(s, t, float(draw(st.integers(min_value=1, max_value=3))))
                 for s, t in edges]
    graph = Graph.from_edges(edges, num_nodes=num_nodes)
    strength = draw(st.floats(min_value=0.02, max_value=0.08))
    off_diagonal = -strength / (num_classes - 1)
    residual = np.full((num_classes, num_classes), off_diagonal)
    np.fill_diagonal(residual, strength)
    # Keep the coupling well inside the convergence region.
    rho_a = max(float(np.max(np.abs(np.linalg.eigvals(graph.adjacency.toarray())))),
                1.0)
    rho_h = float(np.max(np.abs(np.linalg.eigvals(residual))))
    coupling = CouplingMatrix.from_residual(residual,
                                            epsilon=min(0.4 / (rho_a * rho_h), 1.0))
    labeled = draw(st.lists(st.integers(min_value=0, max_value=num_nodes - 1),
                            min_size=1, max_size=num_nodes, unique=True))
    explicit = np.zeros((num_nodes, num_classes))
    for node in labeled:
        label = draw(st.integers(min_value=0, max_value=num_classes - 1))
        explicit[node, :] = -0.1 / (num_classes - 1)
        explicit[node, label] = 0.1
    return graph, coupling, explicit


#: A workload whose max belief change lands *on* the 1e-10 stopping
#: boundary at sweep 10 (run_batch computes 1.0000000134e-10, the SQL
#: summation order 9.9999999600e-11), so the backends legitimately stop
#: one sweep apart.  Pinned so the boundary handling below stays covered.
_BOUNDARY_WORKLOAD = (
    Graph.from_edges([(0, 1)], num_nodes=3),
    CouplingMatrix.from_residual(np.array([[0.05, -0.05], [-0.05, 0.05]]),
                                 epsilon=1.0),
    np.array([[0.1, -0.1], [0.0, 0.0], [0.0, 0.0]]),
)


def _assert_convergence_agrees(result, reference, name):
    """Iteration counts and convergence flags must match — exactly, unless
    the deciding sweep's max belief change sits within float noise of the
    tolerance.  The backends sum the same update in a different order than
    the SpMM engine, so a change landing on the 1e-10 boundary can round to
    opposite sides of it and cost (or save) exactly one sweep.  Beliefs
    still agree to TOLERANCE either way; only in that knife-edge case is a
    one-sweep difference accepted.
    """
    if (result.iterations == reference.iterations
            and result.converged == reference.converged):
        return
    assert abs(result.iterations - reference.iterations) <= 1, (
        f"backend {name}: {result.iterations} iterations vs "
        f"{reference.iterations} for run_batch — more than a boundary tie")
    deciding = min(result.iterations, reference.iterations) - 1
    for label, history in (("run_batch", reference.residual_history),
                           (name, result.residual_history)):
        change = history[deciding]
        assert abs(change - TOLERANCE) <= TOLERANCE * 1e-6, (
            f"{label}: change {change!r} at the deciding sweep is not "
            f"within noise of the tolerance, so iteration counts must "
            f"match exactly (backend {name}: {result.iterations}, "
            f"run_batch: {reference.iterations})")

#: Backends every example is checked against.  DuckDB is compared only
#: when installed; its absence must not fail the suite.
COMPARED_BACKENDS = available_backends()


def _backend_results(workload, run):
    """Run ``run(backend)`` on every compared backend; return name->result."""
    graph, coupling, explicit = workload
    results = {}
    for name in COMPARED_BACKENDS:
        with get_backend(name) as backend:
            backend.load_graph(graph, coupling, explicit)
            results[name] = run(backend)
    return results


class TestLinBPDifferential:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(cross_engine_workloads())
    def test_backends_match_run_batch_to_convergence(self, workload):
        graph, coupling, explicit = workload
        reference = run_batch(get_plan(graph, coupling), [explicit],
                              max_iterations=100, tolerance=TOLERANCE)[0]
        results = _backend_results(
            workload,
            lambda backend: backend.run_linbp(max_iterations=100,
                                              tolerance=TOLERANCE))
        for name, result in results.items():
            np.testing.assert_allclose(
                result.beliefs, reference.beliefs, rtol=0, atol=TOLERANCE,
                err_msg=f"backend {name} diverges from run_batch")
            _assert_convergence_agrees(result, reference, name)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(cross_engine_workloads(),
           st.integers(min_value=1, max_value=4))
    def test_backends_match_run_batch_at_fixed_iterations(self, workload,
                                                          num_iterations):
        graph, coupling, explicit = workload
        reference = run_batch(get_plan(graph, coupling), [explicit],
                              num_iterations=num_iterations)[0]
        results = _backend_results(
            workload,
            lambda backend: backend.run_linbp(num_iterations=num_iterations))
        for name, result in results.items():
            np.testing.assert_allclose(
                result.beliefs, reference.beliefs, rtol=0, atol=TOLERANCE,
                err_msg=f"backend {name} diverges from run_batch after "
                        f"{num_iterations} fixed iterations")
            # Fixed budgets always agree on the count; the converged flag
            # (last change < default tolerance) gets the boundary handling.
            assert result.iterations == reference.iterations
            _assert_convergence_agrees(result, reference, name)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(cross_engine_workloads())
    @example(_BOUNDARY_WORKLOAD)
    def test_backends_match_run_batch_without_echo(self, workload):
        graph, coupling, explicit = workload
        reference = run_batch(
            get_plan(graph, coupling, echo_cancellation=False), [explicit],
            max_iterations=100, tolerance=TOLERANCE)[0]
        results = _backend_results(
            workload,
            lambda backend: backend.run_linbp(max_iterations=100,
                                              tolerance=TOLERANCE,
                                              echo_cancellation=False))
        for name, result in results.items():
            np.testing.assert_allclose(
                result.beliefs, reference.beliefs, rtol=0, atol=TOLERANCE,
                err_msg=f"backend {name} diverges from LinBP* run_batch")
            _assert_convergence_agrees(result, reference, name)


class TestSBPDifferential:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(cross_engine_workloads())
    def test_backends_match_run_sbp_batch(self, workload):
        graph, coupling, explicit = workload
        reference = run_sbp_batch(graph, coupling, [explicit])[0]
        results = _backend_results(workload,
                                   lambda backend: backend.run_sbp())
        for name, result in results.items():
            np.testing.assert_allclose(
                result.beliefs, reference.beliefs, rtol=0, atol=TOLERANCE,
                err_msg=f"backend {name} diverges from run_sbp_batch")
            assert result.iterations == reference.iterations
            assert result.converged is True
            assert np.array_equal(result.extra["geodesic_numbers"],
                                  reference.extra["geodesic_numbers"]), (
                f"backend {name} computed different geodesic numbers")


    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(cross_engine_workloads())
    def test_top_beliefs_match_run_sbp_batch(self, workload):
        graph, coupling, explicit = workload
        reference = run_sbp_batch(graph, coupling, [explicit])[0]
        results = _backend_results(workload,
                                   lambda backend: backend.run_sbp())
        # top_beliefs() ties classes within 1e-10 of the row maximum; a
        # class sitting *at* that boundary can land on either side from
        # beliefs that are equal to 1e-10 but not bit-identical.  Skip
        # only those boundary rows.
        gaps = np.max(reference.beliefs, axis=1, keepdims=True) \
            - reference.beliefs
        ambiguous = np.any((gaps > 1e-11) & (gaps < 1e-9), axis=1)
        expected = reference.top_beliefs()
        for name, result in results.items():
            top = result.top_beliefs()
            for node in np.flatnonzero(~ambiguous):
                assert top[node] == expected[node], (
                    f"backend {name}: top-belief sets disagree on node "
                    f"{node}")

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(cross_engine_workloads(), st.data())
    def test_delta_sbp_matches_the_memory_runner(self, workload, data):
        """A label update, then an edge update, as SBP applies them."""
        graph, coupling, explicit = workload
        labeled = np.flatnonzero(np.any(explicit != 0.0, axis=1))
        added = data.draw(st.lists(st.sampled_from(labeled.tolist()),
                                   min_size=1, unique=True))
        initial = explicit.copy()
        initial[added] = 0.0
        update = np.zeros_like(explicit)
        update[added] = explicit[added]
        n = graph.num_nodes
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1, max_size=n))
        new_edges = [(s, t) for s, t in pairs if s != t]
        assume(new_edges)
        memory = SBP(graph, coupling)
        memory.run(initial)
        references = [memory.add_explicit_beliefs(update),
                      memory.add_edges(new_edges)]
        for name in COMPARED_BACKENDS:
            with get_backend(name) as backend:
                backend.load_graph(graph, coupling, initial)
                backend.run_sbp()
                results = [backend.add_explicit_beliefs(update),
                           backend.add_edges(new_edges)]
            for result, reference in zip(results, references):
                np.testing.assert_allclose(
                    result.beliefs, reference.beliefs, rtol=0,
                    atol=TOLERANCE,
                    err_msg=f"backend {name} diverges from SBP's ΔSBP")
                assert np.array_equal(result.extra["geodesic_numbers"],
                                      reference.extra["geodesic_numbers"])
                assert result.extra["nodes_updated"] == \
                    reference.extra["nodes_updated"]


class TestTopLabelDifferential:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(cross_engine_workloads())
    def test_streamed_top_labels_match_hard_labels(self, workload):
        """The in-database argmax query equals PropagationResult.hard_labels.

        ``top_labels()`` is the out-of-core path — it must agree with the
        dense argmax on every graph, including nodes with all-zero beliefs
        (omitted by the stream, −1 in ``hard_labels``).
        """
        graph, coupling, explicit = workload
        reference = run_batch(get_plan(graph, coupling), [explicit],
                              max_iterations=100, tolerance=TOLERANCE)[0]
        expected = {node: int(label)
                    for node, label in enumerate(reference.hard_labels())
                    if label >= 0}
        for name in COMPARED_BACKENDS:
            with get_backend(name) as backend:
                backend.load_graph(graph, coupling, explicit)
                backend.run_linbp(max_iterations=100, tolerance=TOLERANCE,
                                  materialize=False)
                assert dict(backend.top_labels()) == expected, (
                    f"backend {name}: streamed top labels disagree with "
                    "hard_labels()")


def test_duckdb_comparison_status():
    """Make the DuckDB leg's participation visible in the test report."""
    if not BACKENDS["duckdb"].is_available():
        pytest.skip("duckdb not installed; differential suite compared "
                    "sqlite only")
    assert "duckdb" in COMPARED_BACKENDS
