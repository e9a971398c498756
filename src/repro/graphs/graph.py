"""Undirected (optionally weighted) graph substrate.

The paper works with an undirected graph of ``n`` nodes represented by its
symmetric adjacency matrix ``A`` (weighted entries allowed, Section 5.2) and a
diagonal degree matrix ``D`` whose entries are the sums of squared edge
weights.  :class:`Graph` wraps a ``scipy.sparse`` CSR adjacency matrix and
provides exactly the views the algorithms need:

* ``adjacency`` — symmetric CSR matrix ``A``;
* ``degree_vector`` / ``degree_matrix`` — the echo-cancellation degrees;
  the squared-weight degree vector is computed once and cached on the
  instance (callers receive copies), since every LinBP run and convergence
  check needs it;
* ``neighbors(node)`` — neighbour ids and weights, for the message-passing
  BP baseline and for the SBP frontier expansion;
* ``edges()`` — an iterator over undirected edges, for the relational
  implementations and for dataset export.

Nodes are integers ``0..n-1``.  Optional string labels can be attached for
presentation purposes (used by the examples) but the algorithms never rely on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.graphs import linalg

__all__ = ["Edge", "Graph"]


@dataclass(frozen=True)
class Edge:
    """A single undirected edge ``source — target`` with a positive weight."""

    source: int
    target: int
    weight: float = 1.0

    def reversed(self) -> "Edge":
        """The same edge with the endpoints swapped."""
        return Edge(self.target, self.source, self.weight)

    def key(self) -> Tuple[int, int]:
        """Canonical (sorted) endpoint pair used to deduplicate edges."""
        return (self.source, self.target) if self.source <= self.target \
            else (self.target, self.source)


EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Edge]


def edge_columns(edges: Iterable[EdgeLike]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources, targets (int64) and weights (float64), in input order.

    A table of numeric pairs or triples (a list of them, or an ``(m, 2)``
    or ``(m, 3)`` array) converts in one numpy pass.  Anything else --
    :class:`Edge` objects, pairs mixed with triples, strings -- converts
    edge by edge with ``int``/``float``; an edge that does not convert is
    a :class:`ValidationError`, raised only after the edges before it
    have passed :func:`_check_edges`.
    """
    if isinstance(edges, (list, tuple)) \
            or (isinstance(edges, np.ndarray) and edges.ndim > 0):
        items = edges
    else:
        try:
            items = list(edges)
        except TypeError:
            raise ValidationError(
                f"edges must be an iterable of (source, target) or "
                f"(source, target, weight) rows, got {edges!r:.60}") from None
    try:
        table = np.asarray(items)
    except (ValueError, TypeError, OverflowError):
        table = None
    # NaN, infinite or huge float ids take the per-edge path, where int()
    # raises for them.
    if (table is not None and table.ndim == 2 and table.shape[1] in (2, 3)
            and table.dtype.kind in "if"
            and np.all(np.abs(table[:, :2]) < 2.0 ** 62)):
        ids = table[:, :2].astype(np.int64)
        weights = table[:, 2].astype(float) if table.shape[1] == 3 \
            else np.ones(table.shape[0])
        return ids[:, 0], ids[:, 1], weights
    sources: List[int] = []
    targets: List[int] = []
    weights_list: List[float] = []
    try:
        for item in items:
            if isinstance(item, Edge):
                source, target, weight = item.source, item.target, item.weight
            elif len(item) == 2:
                source, target = item  # type: ignore[misc]
                weight = 1.0
            else:
                source, target, weight = item  # type: ignore[misc]
            source, target, weight = int(source), int(target), float(weight)
            sources.append(source)
            targets.append(target)
            weights_list.append(weight)
    except (TypeError, ValueError, OverflowError):
        columns = _int64_ids(sources, targets)
        _check_edges(*columns, np.array(weights_list, dtype=float))
        raise ValidationError(
            f"edges[{len(sources)}] = {item!r:.60} is not (source, target) "
            "or (source, target, weight) with integer node ids and a "
            "numeric weight") from None
    return _int64_ids(sources, targets) + (np.array(weights_list,
                                                    dtype=float),)


def _int64_ids(sources: List[int], targets: List[int]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Node id columns as int64; an id beyond int64 is a ValidationError."""
    try:
        return (np.array(sources, dtype=np.int64),
                np.array(targets, dtype=np.int64))
    except OverflowError:
        raise ValidationError(
            "node ids must be non-negative integers below 2**63") from None


def _check_edges(sources: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray) -> None:
    """Reject the first edge that is a self-loop, has a negative id or a
    non-positive weight, with the message of the first check it fails."""
    bad = (sources == targets) | (sources < 0) | (targets < 0) \
        | (weights <= 0.0)
    if not bad.any():
        return
    first = int(np.argmax(bad))
    source, target = int(sources[first]), int(targets[first])
    if source == target:
        raise ValidationError(f"self-loop on node {source} is not allowed")
    if source < 0 or target < 0:
        raise ValidationError("node ids must be non-negative integers")
    raise ValidationError(f"edge {source}-{target} has non-positive weight "
                          f"{float(weights[first])}")


def _unique_edges(edges: Iterable[EdgeLike], num_nodes: Optional[int]
                  ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray]:
    """Validate ``edges`` and group them by undirected node pair.

    Returns ``(n, low, high, pair, weights)``: the node count
    (``num_nodes``, or the largest referenced node + 1 when it is
    ``None``), the distinct pairs as sorted arrays with ``low < high``,
    and each input edge's pair index and weight, in input order.
    """
    sources, targets, weights = edge_columns(edges)
    _check_edges(sources, targets, weights)
    max_node = int(max(sources.max(), targets.max())) if sources.size else -1
    n = num_nodes if num_nodes is not None else max_node + 1
    if n < max_node + 1:
        raise ValidationError(
            f"num_nodes={n} is smaller than the largest referenced node {max_node}")
    keys, pair = np.unique(np.minimum(sources, targets) * n
                           + np.maximum(sources, targets), return_inverse=True)
    low, high = np.divmod(keys, n)
    return n, low, high, pair, weights


def _symmetric_csr(low: np.ndarray, high: np.ndarray, values: np.ndarray,
                   n: int) -> sp.csr_matrix:
    """The canonical CSR matrix with ``values`` at ``(low, high)`` and
    ``(high, low)``; the pairs must be distinct with ``low < high``."""
    rows = np.concatenate((low, high))
    cols = np.concatenate((high, low))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.concatenate((values, values))[order],
                          cols[order], indptr), shape=(n, n), dtype=float)


class Graph:
    """An undirected, weighted graph backed by a symmetric sparse matrix.

    Parameters
    ----------
    adjacency:
        A square, symmetric matrix (dense or sparse) with non-negative
        entries.  ``adjacency[s, t]`` is the weight of edge ``s — t`` and zero
        when the edge is absent.
    node_names:
        Optional sequence of display names, one per node.
    validate:
        When true (default), check squareness, symmetry and non-negativity.
    """

    def __init__(self, adjacency, node_names: Optional[Sequence[str]] = None,
                 validate: bool = True):
        matrix = linalg.to_csr(adjacency).astype(float)
        if validate:
            self._validate(matrix)
        matrix.setdiag(0.0)
        matrix.eliminate_zeros()
        # Canonical form (sorted indices, no duplicates): with_edges_added
        # merges into it and returns the same form.
        matrix.sum_duplicates()
        self._install(matrix, node_names)

    def _install(self, matrix: sp.csr_matrix,
                 node_names: Optional[Sequence[str]]) -> None:
        self._adjacency = matrix
        self._node_names = list(node_names) if node_names is not None else None
        if self._node_names is not None and len(self._node_names) != matrix.shape[0]:
            raise ValidationError(
                f"expected {matrix.shape[0]} node names, got {len(self._node_names)}")
        self._degree_cache: Optional[np.ndarray] = None

    @classmethod
    def _canonical(cls, matrix: sp.csr_matrix,
                   node_names: Optional[Sequence[str]] = None) -> "Graph":
        """Wrap ``matrix`` without copying or re-checking it.

        ``matrix`` must already be what ``__init__`` produces: a float
        CSR matrix that is symmetric, has positive off-diagonal entries
        only, and is canonical (sorted indices, no duplicates).
        """
        graph = cls.__new__(cls)
        graph._install(matrix, node_names)
        return graph

    @staticmethod
    def _validate(matrix: sp.csr_matrix) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"adjacency matrix must be square, got shape {matrix.shape}")
        if matrix.nnz and float(matrix.data.min()) < 0.0:
            raise ValidationError("edge weights must be non-negative")
        if not linalg.is_symmetric(matrix):
            raise ValidationError("adjacency matrix must be symmetric "
                                  "(the paper's graphs are undirected)")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[EdgeLike],
                   num_nodes: Optional[int] = None,
                   node_names: Optional[Sequence[str]] = None) -> "Graph":
        """Build a graph from an iterable of edges.

        Each edge may be an :class:`Edge`, a ``(source, target)`` pair
        (weight 1.0), or a ``(source, target, weight)`` triple.  Duplicate
        edges are summed; self-loops are rejected.
        """
        n, low, high, pair, weights = _unique_edges(edges, num_nodes)
        # Duplicates sum in input order, like a running per-pair total.
        sums = np.bincount(pair, weights=weights, minlength=low.size)
        return cls._canonical(_symmetric_csr(low, high, sums, n),
                              node_names=node_names)

    @classmethod
    def empty(cls, num_nodes: int) -> "Graph":
        """A graph with ``num_nodes`` nodes and no edges."""
        if num_nodes < 0:
            raise ValidationError("num_nodes must be non-negative")
        return cls(sp.csr_matrix((num_nodes, num_nodes)), validate=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def adjacency(self) -> sp.csr_matrix:
        """The symmetric CSR adjacency matrix ``A``."""
        return self._adjacency

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self._adjacency.nnz // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of adjacency-matrix entries (the paper's edge count, Fig. 6a)."""
        return self._adjacency.nnz

    @property
    def is_weighted(self) -> bool:
        """True when any edge weight differs from 1."""
        if self._adjacency.nnz == 0:
            return False
        return not np.allclose(self._adjacency.data, 1.0)

    @property
    def node_names(self) -> Optional[List[str]]:
        """Optional display names, one per node."""
        return list(self._node_names) if self._node_names is not None else None

    def name_of(self, node: int) -> str:
        """Display name of ``node`` (falls back to ``'v<node>'``)."""
        if self._node_names is not None:
            return self._node_names[node]
        return f"v{node}"

    # ------------------------------------------------------------------ #
    # degrees and linear algebra views
    # ------------------------------------------------------------------ #
    def degree_vector(self, weighted_squares: bool = True) -> np.ndarray:
        """Degrees per node; squared-weight sums by default (Section 5.2).

        The squared-weight vector is cached on first computation (the graph
        is immutable-ish, every propagation needs it); the returned array is
        a copy, so callers may mutate it freely.  The plain weighted variant
        (``weighted_squares=False``) is recomputed on each call.
        """
        if weighted_squares:
            if self._degree_cache is None:
                self._degree_cache = linalg.degree_vector(self._adjacency, True)
            return self._degree_cache.copy()
        return linalg.degree_vector(self._adjacency, False)

    def degree_matrix(self, weighted_squares: bool = True) -> sp.csr_matrix:
        """Diagonal degree matrix ``D`` used by the echo-cancellation term."""
        return sp.diags(self.degree_vector(weighted_squares), format="csr")

    def spectral_radius(self) -> float:
        """Spectral radius ``ρ(A)`` of the adjacency matrix."""
        return linalg.spectral_radius(self._adjacency)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbour ids and edge weights of ``node`` as two aligned arrays."""
        if node < 0 or node >= self.num_nodes:
            raise ValidationError(f"node {node} out of range [0, {self.num_nodes})")
        start, end = self._adjacency.indptr[node], self._adjacency.indptr[node + 1]
        return (self._adjacency.indices[start:end].copy(),
                self._adjacency.data[start:end].copy())

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return int(self._adjacency.indptr[node + 1] - self._adjacency.indptr[node])

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges once each (source < target)."""
        coo = self._adjacency.tocoo()
        for source, target, weight in zip(coo.row, coo.col, coo.data):
            if source < target:
                yield Edge(int(source), int(target), float(weight))

    def directed_edges(self) -> Iterator[Edge]:
        """Iterate over both directions of every edge (as stored in ``A``)."""
        coo = self._adjacency.tocoo()
        for source, target, weight in zip(coo.row, coo.col, coo.data):
            yield Edge(int(source), int(target), float(weight))

    def has_edge(self, source: int, target: int) -> bool:
        """True when the undirected edge ``source — target`` exists."""
        return self._adjacency[source, target] != 0.0

    def edge_weight(self, source: int, target: int) -> float:
        """Weight of edge ``source — target`` (0.0 when absent)."""
        return float(self._adjacency[source, target])

    # ------------------------------------------------------------------ #
    # modification (returns new Graph instances; Graph is immutable-ish)
    # ------------------------------------------------------------------ #
    def with_edges_added(self, new_edges: Iterable[EdgeLike]) -> "Graph":
        """A new graph with ``new_edges`` added (weights summed on duplicates).

        The new edges are validated like :meth:`from_edges` input.  Pairs
        absent from ``A`` are added as one symmetric sparse delta; pairs
        already present are overwritten in place.  Either way a pair's
        weight is its current weight plus the new weights in input order,
        the sum :meth:`from_edges` would form from all edges, so the cost
        follows the size of the delta plus one merge pass over ``A``.
        """
        n, low, high, pair, weights = _unique_edges(new_edges, self.num_nodes)
        # (scipy answers an empty fancy index with a sparse matrix)
        current = np.asarray(self._adjacency[low, high]).ravel() \
            if low.size else np.zeros(0)
        sums = np.bincount(np.concatenate((np.arange(low.size), pair)),
                           weights=np.concatenate((current, weights)))
        absent = current == 0.0
        adjacency = self._adjacency + _symmetric_csr(
            low[absent], high[absent], sums[absent], n)
        if not absent.all():
            present = ~absent
            adjacency[np.concatenate((low[present], high[present])),
                      np.concatenate((high[present], low[present]))] = \
                np.concatenate((sums[present], sums[present]))
        return Graph._canonical(adjacency, node_names=self._node_names)

    def subgraph_weights_scaled(self, factor: float) -> "Graph":
        """A new graph with every edge weight multiplied by ``factor`` > 0."""
        if factor <= 0:
            raise ValidationError("scaling factor must be positive")
        return Graph(self._adjacency * factor, node_names=self._node_names,
                     validate=False)

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        kind = "weighted" if self.is_weighted else "unweighted"
        return (f"Graph(n={self.num_nodes}, undirected_edges={self.num_edges}, "
                f"{kind})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes:
            return False
        difference = (self._adjacency - other._adjacency).tocoo()
        if difference.nnz == 0:
            return True
        return bool(np.max(np.abs(difference.data)) < 1e-12)
