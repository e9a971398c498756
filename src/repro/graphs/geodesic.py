"""Geodesic numbers and the modified adjacency matrix used by SBP.

Single-pass BP (Section 6 of the paper) assigns to every node ``t`` its
*geodesic number* ``g_t`` — the length of the shortest path to any node with
explicit beliefs (Definition 14) — and then propagates beliefs only along
edges that go from a node with geodesic number ``g`` to a node with geodesic
number ``g + 1``.  Lemma 17 shows this is equivalent to running LinBP over a
*modified adjacency matrix* ``A*`` in which

* edges between nodes with the same geodesic number are removed, and
* the remaining edges keep only the direction from lower to higher geodesic
  number (so ``A*`` is a DAG).

Everything in this module is set-at-a-time: the multi-source BFS expands
whole frontiers with CSR ``indptr``/``indices`` gathers and ``np.unique``,
``A*`` is carved out of the adjacency COO arrays with boolean masks, and the
per-level structure is exposed both as node lists (:class:`GeodesicLevels`)
and as contiguous per-level CSR blocks (:func:`level_slices`) that the
engine's :class:`repro.engine.sbp_plan.SBPPlan` sweeps one level at a time.
The gather primitive (:func:`neighbor_gather`) is shared with the
incremental ΔSBP repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.graphs.graph import Graph

__all__ = [
    "UNREACHABLE",
    "as_node_array",
    "geodesic_numbers",
    "GeodesicLevels",
    "geodesic_levels",
    "level_slices",
    "modified_adjacency",
    "neighbor_gather",
    "neighbor_targets",
    "shortest_path_weights",
]

#: Geodesic number assigned to nodes that cannot reach any labeled node.
UNREACHABLE = -1


def as_node_array(nodes: Iterable[int]) -> np.ndarray:
    """Sorted, deduplicated int64 node array from any iterable.

    Already-canonical ndarrays pass through without boxing their elements
    into Python ints — the hot path, since callers hand over the result of
    ``np.nonzero`` or a cached plan's ``labeled`` array.
    """
    if isinstance(nodes, np.ndarray):
        return np.unique(nodes.astype(np.int64, copy=False))
    return np.unique(np.array(list(nodes), dtype=np.int64))


def _checked_labeled(labeled_nodes: Iterable[int], num_nodes: int) -> np.ndarray:
    """Sorted, deduplicated labeled-node array, validated against ``[0, n)``."""
    labeled = as_node_array(labeled_nodes)
    if labeled.size:
        bad = labeled[0] if labeled[0] < 0 else labeled[-1]
        if bad < 0 or bad >= num_nodes:
            raise ValidationError(
                f"labeled node {int(bad)} out of range [0, {num_nodes})")
    return labeled


def _gather_positions(adjacency: sp.csr_matrix,
                      nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat CSR data positions of the rows of ``nodes``, plus per-row counts."""
    indptr = adjacency.indptr
    starts = indptr[nodes].astype(np.int64)
    counts = indptr[nodes + 1].astype(np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    bases = np.cumsum(counts) - counts
    positions = np.repeat(starts - bases, counts) + np.arange(total, dtype=np.int64)
    return positions, counts


def neighbor_targets(adjacency: sp.csr_matrix, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbour ids of ``nodes`` (duplicates included).

    The lightweight sibling of :func:`neighbor_gather` for frontier
    expansion: only the neighbour ids are materialised — no owner
    positions, no edge weights — which is all a BFS wave needs.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    positions, _counts = _gather_positions(adjacency, nodes)
    return adjacency.indices[positions].astype(np.int64, copy=False)


def neighbor_gather(adjacency: sp.csr_matrix,
                    nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated adjacency rows of ``nodes``: ``(owner, neighbor, weight)``.

    ``owner[i]`` is the position *within* ``nodes`` whose row contributed the
    ``i``-th entry.  Each node's entries stay contiguous and owners ascend, so
    the triple reads directly as the rows of a CSR matrix.  This is the
    vectorised replacement for per-node ``graph.neighbors`` loops: one fancy
    gather over ``indptr``/``indices``/``data``, no Python iteration.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    positions, counts = _gather_positions(adjacency, nodes)
    if positions.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    owner = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    return (owner, adjacency.indices[positions].astype(np.int64, copy=False),
            adjacency.data[positions].astype(np.float64, copy=False))


def geodesic_numbers(graph: Graph, labeled_nodes: Iterable[int]) -> np.ndarray:
    """Multi-source BFS distances from the set of explicitly labeled nodes.

    Returns an integer array of length ``n`` where labeled nodes have value 0,
    nodes at distance ``g`` have value ``g``, and nodes in components without
    any labeled node have value :data:`UNREACHABLE`.

    Edge weights are ignored for the distance itself (the paper's geodesic
    number counts hops); weights only enter the belief computation through the
    path-weight products (Definition 15).

    The BFS is fully vectorised: every frontier expansion is one gather of
    the frontier's CSR rows followed by an unvisited mask and ``np.unique`` —
    no Python-level per-node loops.
    """
    labeled = _checked_labeled(labeled_nodes, graph.num_nodes)
    numbers = np.full(graph.num_nodes, UNREACHABLE, dtype=np.int64)
    if labeled.size == 0:
        return numbers
    adjacency = graph.adjacency
    numbers[labeled] = 0
    frontier = labeled
    level = 0
    while frontier.size:
        level += 1
        neighbors = neighbor_targets(adjacency, frontier)
        if neighbors.size == 0:
            break
        fresh = neighbors[numbers[neighbors] == UNREACHABLE]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        numbers[frontier] = level
    return numbers


@dataclass
class GeodesicLevels:
    """Geodesic numbers plus the per-level node lists ("frontiers").

    Attributes
    ----------
    numbers:
        Array of geodesic numbers (``UNREACHABLE`` for disconnected nodes).
    levels:
        ``levels[g]`` is the sorted array of nodes with geodesic number ``g``.
    unreachable:
        Sorted array of nodes that cannot reach any labeled node.
    """

    numbers: np.ndarray
    levels: List[np.ndarray]
    unreachable: np.ndarray

    @property
    def max_level(self) -> int:
        """The largest geodesic number present (−1 when no node is labeled)."""
        return len(self.levels) - 1

    def nodes_at(self, level: int) -> np.ndarray:
        """Nodes with geodesic number ``level`` (empty array when none)."""
        if 0 <= level < len(self.levels):
            return self.levels[level]
        return np.array([], dtype=np.int64)


def _levels_from_numbers(numbers: np.ndarray) -> GeodesicLevels:
    """Group nodes by geodesic number with one stable argsort."""
    if numbers.size == 0:
        return GeodesicLevels(numbers=numbers, levels=[],
                              unreachable=np.array([], dtype=np.int64))
    order = np.argsort(numbers, kind="stable")
    sorted_numbers = numbers[order]
    # Stable sort on ascending node index keeps every group internally sorted.
    first_reachable = int(np.searchsorted(sorted_numbers, 0))
    unreachable = order[:first_reachable]
    max_level = int(sorted_numbers[-1])
    if max_level == UNREACHABLE:
        return GeodesicLevels(numbers=numbers, levels=[], unreachable=unreachable)
    bounds = np.searchsorted(sorted_numbers, np.arange(max_level + 2))
    levels = [order[bounds[level]:bounds[level + 1]]
              for level in range(max_level + 1)]
    return GeodesicLevels(numbers=numbers, levels=levels, unreachable=unreachable)


def geodesic_levels(graph: Graph, labeled_nodes: Iterable[int]) -> GeodesicLevels:
    """Compute geodesic numbers and group nodes by level."""
    return _levels_from_numbers(geodesic_numbers(graph, labeled_nodes))


def _dag_mask(adjacency: sp.csr_matrix,
              numbers: np.ndarray) -> Tuple[sp.coo_matrix, np.ndarray]:
    """COO view of the adjacency plus the Lemma-17 edge mask ``g_t = g_s + 1``."""
    coo = adjacency.tocoo()
    source_levels = numbers[coo.row]
    mask = (source_levels != UNREACHABLE) & (numbers[coo.col] == source_levels + 1)
    return coo, mask


def modified_adjacency(graph: Graph, labeled_nodes: Iterable[int]) -> sp.csr_matrix:
    """The modified adjacency matrix ``A*`` of Lemma 17.

    ``A*(s, t) = w`` exactly when the original graph has an edge ``s — t`` of
    weight ``w`` and ``g_t = g_s + 1``; all other entries are zero.  The
    resulting directed graph is acyclic (information only flows from smaller
    to larger geodesic numbers), and SBP over the original graph equals LinBP
    over ``A*ᵀ``.

    Edges incident to unreachable nodes are dropped entirely.  The matrix is
    carved out of the adjacency COO arrays with one boolean mask — no
    ``directed_edges()`` iteration.
    """
    numbers = geodesic_numbers(graph, labeled_nodes)
    coo, mask = _dag_mask(graph.adjacency, numbers)
    n = graph.num_nodes
    return sp.coo_matrix((coo.data[mask], (coo.row[mask], coo.col[mask])),
                         shape=(n, n)).tocsr()


def _slices_from_levels(adjacency: sp.csr_matrix,
                        levels: GeodesicLevels) -> List[sp.csr_matrix]:
    """Per-level CSR blocks of ``A*`` (see :func:`level_slices`)."""
    numbers = levels.numbers
    rank = np.zeros(adjacency.shape[0], dtype=np.int64)
    for nodes in levels.levels:
        rank[nodes] = np.arange(nodes.size, dtype=np.int64)
    coo, mask = _dag_mask(adjacency, numbers)
    sources = coo.row[mask]
    targets = coo.col[mask]
    data = coo.data[mask]
    target_levels = numbers[targets]
    order = np.argsort(target_levels, kind="stable")
    sources, targets, data = sources[order], targets[order], data[order]
    target_levels = target_levels[order]
    bounds = np.searchsorted(target_levels, np.arange(1, levels.max_level + 2))
    slices: List[sp.csr_matrix] = []
    for level in range(1, levels.max_level + 1):
        lo, hi = bounds[level - 1], bounds[level]
        shape = (levels.levels[level].size, levels.levels[level - 1].size)
        slices.append(sp.coo_matrix(
            (data[lo:hi].astype(np.float64),
             (rank[targets[lo:hi]], rank[sources[lo:hi]])),
            shape=shape).tocsr())
    return slices


def level_slices(graph: Graph,
                 labeled_nodes: Iterable[int]) -> Tuple[GeodesicLevels,
                                                        List[sp.csr_matrix]]:
    """The Lemma-17 DAG as contiguous per-level CSR blocks.

    Returns ``(levels, slices)`` where ``slices[g - 1]`` is the
    ``|level g| × |level g−1|`` matrix ``S_g`` with ``S_g[i, j]`` the weight
    of the ``A*`` edge from the ``j``-th node of level ``g−1`` into the
    ``i``-th node of level ``g``.  The single-pass sweep then reads
    ``B_g = (S_g B_{g−1}) Ĥ`` — each level multiplies only against the
    previous level's rows instead of slicing the full ``n × n`` DAG and
    multiplying against the whole belief matrix.
    """
    levels = geodesic_levels(graph, labeled_nodes)
    return levels, _slices_from_levels(graph.adjacency, levels)


def shortest_path_weights(graph: Graph, labeled_nodes: Sequence[int]) -> sp.csr_matrix:
    """Aggregate path weights from each labeled node to every node.

    Definition 15 sums, over all shortest paths ``p`` from labeled nodes to a
    node ``t`` of geodesic length ``g_t``, the product of the edge weights
    along ``p``, multiplied by the explicit belief at the path's start.  This
    helper returns the ``n x n_labeled`` sparse matrix ``W`` where
    ``W[t, j]`` is the total weight of shortest paths from the ``j``-th
    labeled node to ``t``; the SBP beliefs are then ``Ĥ^{g_t} Σ_j W[t, j] ê_j``.

    For an unweighted graph ``W[t, j]`` simply counts shortest paths (e.g. the
    factor 2 for node v1 in Example 16).

    The computation runs level by level over the per-level slices of the DAG
    ``A*``: the block of path weights at level ``g`` is one sparse product
    ``S_g W_{g−1}`` against the previous level's block, and the blocks are
    stitched together into the final CSR matrix at the end — no ``lil_matrix``
    row assignment, no per-neighbour densification.
    """
    labeled = [int(node) for node in labeled_nodes]
    if len(set(labeled)) != len(labeled):
        raise ValidationError("labeled_nodes must not contain duplicates")
    levels, slices = level_slices(graph, labeled)
    n = graph.num_nodes
    n_labeled = len(labeled)
    if n_labeled == 0:
        return sp.csr_matrix((n, 0))
    column_of = np.zeros(n, dtype=np.int64)
    column_of[np.array(labeled, dtype=np.int64)] = np.arange(n_labeled)
    base = levels.nodes_at(0)
    block = sp.csr_matrix(
        (np.ones(base.size), (np.arange(base.size), column_of[base])),
        shape=(base.size, n_labeled))
    row_blocks: List[Tuple[np.ndarray, sp.spmatrix]] = [(base, block)]
    for index, slice_matrix in enumerate(slices, start=1):
        block = (slice_matrix @ block).tocsr()
        row_blocks.append((levels.nodes_at(index), block))
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    data: List[np.ndarray] = []
    for nodes, level_block in row_blocks:
        coo = level_block.tocoo()
        rows.append(nodes[coo.row])
        cols.append(coo.col.astype(np.int64))
        data.append(coo.data)
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n_labeled)).tocsr()
