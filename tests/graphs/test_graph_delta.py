"""Differential tests: vectorised graph constructors against the edge-dict oracle.

``reference_from_edges`` and ``reference_with_edges_added`` are the
constructors :class:`~repro.graphs.graph.Graph` used to have: a Python
loop that validates each edge, sums duplicates in a dict keyed by the
sorted node pair, and rebuilds the whole matrix (``with_edges_added``
re-created every existing edge as an :class:`Edge` and appended the new
ones).  The vectorised constructors must produce the same CSR arrays,
bit for bit, and raise the same :class:`ValidationError` messages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.graphs import Edge, Graph
from repro.graphs import linalg


# ---------------------------------------------------------------------- #
# the oracle
# ---------------------------------------------------------------------- #
def _canonicalise(matrix) -> sp.csr_matrix:
    """What ``Graph.__init__`` did to an adjacency matrix."""
    matrix = linalg.to_csr(matrix).astype(float)
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


def reference_from_edges(edges, num_nodes=None) -> sp.csr_matrix:
    weights: Dict[Tuple[int, int], float] = {}
    max_node = -1
    for item in edges:
        if isinstance(item, Edge):
            source, target, weight = item.source, item.target, item.weight
        elif len(item) == 2:
            source, target = item
            weight = 1.0
        else:
            source, target, weight = item
        source, target, weight = int(source), int(target), float(weight)
        if source == target:
            raise ValidationError(f"self-loop on node {source} is not allowed")
        if source < 0 or target < 0:
            raise ValidationError("node ids must be non-negative integers")
        if weight <= 0.0:
            raise ValidationError(
                f"edge {source}-{target} has non-positive weight {weight}")
        key = (source, target) if source < target else (target, source)
        weights[key] = weights.get(key, 0.0) + weight
        max_node = max(max_node, source, target)
    n = num_nodes if num_nodes is not None else max_node + 1
    if n < max_node + 1:
        raise ValidationError(
            f"num_nodes={n} is smaller than the largest referenced node {max_node}")
    if not weights:
        return _canonicalise(sp.csr_matrix((n, n)))
    rows, cols, vals = [], [], []
    for (source, target), weight in weights.items():
        rows.extend((source, target))
        cols.extend((target, source))
        vals.extend((weight, weight))
    return _canonicalise(
        sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())


def reference_with_edges_added(graph: Graph, new_edges) -> sp.csr_matrix:
    combined: List[Edge] = list(graph.edges())
    for item in new_edges:
        if isinstance(item, Edge):
            combined.append(item)
        elif len(item) == 2:
            combined.append(Edge(int(item[0]), int(item[1]), 1.0))
        else:
            combined.append(Edge(int(item[0]), int(item[1]), float(item[2])))
    return reference_from_edges(combined, num_nodes=graph.num_nodes)


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert isinstance(actual, sp.csr_matrix)
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def _random_edges(rng: np.random.Generator, n: int, m: int,
                  weighted: bool) -> list:
    """``m`` edges on ``n`` nodes, with duplicates in both orientations,
    as a mix of pairs, triples and :class:`Edge` objects."""
    edges = []
    for _ in range(m):
        source, target = (int(x) for x in rng.choice(n, size=2, replace=False))
        weight = float(rng.uniform(0.05, 3.0)) if weighted else 1.0
        form = int(rng.integers(3))
        if form == 0 and not weighted:
            edges.append((source, target))
        elif form == 1:
            edges.append((source, target, weight))
        else:
            edges.append(Edge(source, target, weight))
        if rng.random() < 0.3:  # a duplicate, in the other orientation
            edges.append((target, source, weight) if weighted
                         else [target, source])
    return edges


def _messages(build) -> str:
    with pytest.raises(ValidationError) as error:
        build()
    return str(error.value)


# ---------------------------------------------------------------------- #
# from_edges
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("weighted", [False, True])
def test_from_edges_matches_reference(seed, weighted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = _random_edges(rng, n, int(rng.integers(0, 3 * n)), weighted)
    extra = int(rng.integers(0, 3))
    assert_same_csr(Graph.from_edges(edges, num_nodes=n + extra).adjacency,
                    reference_from_edges(edges, num_nodes=n + extra))
    assert_same_csr(Graph.from_edges(iter(edges)).adjacency,
                    reference_from_edges(edges))


@pytest.mark.parametrize("seed", range(10))
def test_from_edges_numeric_tables_match_reference(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 50))
    pairs = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    weights = rng.uniform(0.05, 3.0, size=(pairs.shape[0], 1))
    triples = np.hstack([pairs, weights])
    for table in (pairs, triples, pairs.tolist(), triples.tolist(),
                  [tuple(row) for row in pairs.tolist()]):
        assert_same_csr(Graph.from_edges(table, num_nodes=n).adjacency,
                        reference_from_edges(table, num_nodes=n))


def test_from_edges_empty_and_float_ids():
    assert_same_csr(Graph.from_edges([], num_nodes=4).adjacency,
                    reference_from_edges([], num_nodes=4))
    assert_same_csr(Graph.from_edges([]).adjacency, reference_from_edges([]))
    # int() truncation of float ids, as the reference applies it
    edges = [(0.0, 2.7, 1.5), (1.9, 3.0, 0.25)]
    assert_same_csr(Graph.from_edges(edges).adjacency,
                    reference_from_edges(edges))


@pytest.mark.parametrize("edges,kwargs", [
    ([(0, 1), (2, 2)], {}),                         # self-loop
    ([(0, 1), (-1, 2)], {}),                        # negative id
    ([(-3, -3)], {}),                               # self-loop wins
    ([(0, 1), (1, 2, 0.0)], {}),                    # zero weight
    ([(0, 1, -0.5), (4, 4)], {}),                   # first offender wins
    ([Edge(0, 1), Edge(3, 1, -2.0)], {}),           # Edge objects
    ([(0, 1), [1, 2, 1.0], (2, 2)], {}),            # ragged, slow path
    ([(0, 5)], {"num_nodes": 3}),                   # node >= num_nodes
    ([(0, 1, 1.0), (7, 2, 2.0)], {"num_nodes": 4}),
    ([(1, 1), ("x", 2)], {}),                       # loop before bad value
])
def test_from_edges_errors_match_reference(edges, kwargs):
    assert _messages(lambda: Graph.from_edges(edges, **kwargs)) == \
        _messages(lambda: reference_from_edges(edges, **kwargs))


def test_conversion_errors_still_raise():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1), ("x", 2)])
    with pytest.raises(ValueError):
        Graph.from_edges([(0, float("nan"))])
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1, 2, 3)])
    for not_a_table in (5, np.array(5)):
        with pytest.raises(ValidationError, match="edges must be an iterable"):
            Graph.from_edges(not_a_table)


# ---------------------------------------------------------------------- #
# with_edges_added
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("weighted", [False, True])
def test_chained_additions_match_reference(seed, weighted):
    """A chain of additions, each new edge possibly already present."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 40))
    base = _random_edges(rng, n, int(rng.integers(0, 2 * n)), weighted)
    graph = Graph.from_edges(base, num_nodes=n)
    for _ in range(6):
        new_edges = _random_edges(rng, n, int(rng.integers(0, n)), weighted)
        expected = reference_with_edges_added(graph, new_edges)
        graph = graph.with_edges_added(new_edges)
        assert_same_csr(graph.adjacency, expected)
    assert linalg.is_symmetric(graph.adjacency)


def test_addition_keeps_names_and_leaves_the_original_alone():
    graph = Graph.from_edges([(0, 1), (1, 2)], node_names=["a", "b", "c"])
    before = graph.adjacency.copy()
    grown = graph.with_edges_added([(0, 2, 0.5), (1, 0)])
    assert grown.node_names == ["a", "b", "c"]
    assert grown.edge_weight(0, 1) == 2.0 and grown.edge_weight(2, 0) == 0.5
    assert_same_csr(graph.adjacency, before)
    assert_same_csr(graph.with_edges_added([]).adjacency, before)


@pytest.mark.parametrize("new_edges", [
    [(0, 1), (3, 3)],
    [(0, -2)],
    [(0, 1, 0.0)],
    [(0, 1), Edge(1, 2, -1.0)],
    [(0, 9)],
    [(2, 0), (1, 12, 0.5)],
])
def test_addition_errors_match_reference(new_edges):
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=5)
    assert _messages(lambda: graph.with_edges_added(new_edges)) == \
        _messages(lambda: reference_with_edges_added(graph, new_edges))
