"""Cached single-pass BP plans: geodesic structure + level-sliced kernels.

Single-pass BP (Section 6, Algorithm 2) is one sweep over the geodesic
levels of the labeled-node set.  Everything the sweep needs — geodesic
numbers from the vectorised multi-source BFS, the Lemma-17 DAG ``A*``
carved out of the adjacency with COO masks, and the per-level CSR slices
laid out contiguously — depends only on the *graph* and the *labeled-node
set*, not on the belief values or the coupling.  :class:`SBPPlan` bundles
those artifacts and :func:`get_sbp_plan` memoises them in an engine LRU
alongside :mod:`repro.engine.plan`'s LinBP plans, so repeated SBP queries
against one graph and label set pay the precomputation once.

On top of the plan:

* :meth:`SBPPlan.propagate` runs the single sweep as one
  ``csr_matvecs`` + GEMM pair per level against *only the previous
  level's rows*, over ping-pong buffers (the SBP analogue of
  :class:`repro.engine.batch.BatchWorkspace`);
* :func:`run_sbp_batch` stacks ``q`` explicit-belief matrices that share
  a labeled set into one ``n × (q·k)`` block and sweeps them together;
* :func:`repair_explicit_beliefs` / :func:`repair_added_edges` are the
  vectorised frontier repairs behind Algorithms 3 and 4 (ΔSBP): each
  wave gathers the frontier's parent rows at once, sums them with one
  sparse product in the sweep's parent order, and applies the residual
  coupling in a single GEMM — while keeping the "only touch changed
  nodes" accounting that the Fig. 7e experiment measures.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.beliefs.beliefs import checked_explicit
from repro.coupling.matrices import CouplingMatrix
from repro.core.results import PropagationResult
from repro.engine import kernels
from repro.engine.plan import (
    PLAN_BUILDS,
    PLAN_CACHE_HITS,
    PLAN_CACHE_SIZE,
    GraphKeyedCache,
    register_auxiliary_cache,
)
from repro.exceptions import ValidationError
from repro.obs import counter, profile_sbp_query, span
from repro.graphs.geodesic import (
    UNREACHABLE,
    as_node_array,
    level_slices,
    neighbor_gather,
    neighbor_targets,
)
from repro.graphs.graph import Graph

__all__ = [
    "SBPPlan",
    "get_sbp_plan",
    "sbp_plan_cache_info",
    "run_sbp_batch",
    "RepairStats",
    "repair_explicit_beliefs",
    "repair_added_edges",
]

#: Shares the series of :data:`repro.engine.batch.SWEEPS` — get-or-create
#: on the default registry returns the same counter object.
SWEEPS = counter("repro_engine_sweeps_total",
                 "Propagation sweeps executed, by engine.")


class SBPPlan:
    """Precomputed single-pass structure for one ``(graph, labeled set)``.

    A plan is immutable once built and coupling-independent: the geodesic
    structure only depends on which nodes are labeled, so one plan serves
    every coupling matrix and every belief assignment over the same label
    set.  Instances are created by :func:`get_sbp_plan` (which caches
    them) or directly for one-off use.

    Attributes
    ----------
    labeled:
        Sorted, deduplicated labeled-node array the plan was built for.
    levels:
        The :class:`~repro.graphs.geodesic.GeodesicLevels` partition.
    slices:
        ``slices[g − 1]`` is the ``|level g| × |level g−1|`` CSR block of
        the Lemma-17 DAG ``A*`` — the only rows the sweep touches at
        level ``g``.
    edges_per_sweep:
        Total ``A*`` entries one sweep reads (every edge at most once).
    """

    def __init__(self, graph: Graph, labeled_nodes: Iterable[int]):
        # Only a weak reference to the graph wrapper is kept; the plan owns
        # every artifact it needs, so a cached plan never pins a dead graph.
        self._graph_ref = weakref.ref(graph)
        self.labeled = as_node_array(labeled_nodes)
        self.levels, self.slices = level_slices(graph, self.labeled)
        self.num_nodes = graph.num_nodes
        self.max_level = self.levels.max_level
        self.max_width = max((nodes.size for nodes in self.levels.levels),
                             default=0)
        self.edges_per_sweep = int(sum(block.nnz for block in self.slices))

    @property
    def graph(self) -> Optional[Graph]:
        """The graph this plan was built for (None once garbage collected)."""
        return self._graph_ref()

    @property
    def geodesic_numbers(self) -> np.ndarray:
        """Geodesic numbers of every node (shared array — copy to mutate)."""
        return self.levels.numbers

    # ------------------------------------------------------------------ #
    # the single sweep (Algorithm 2), level-sliced and batched
    # ------------------------------------------------------------------ #
    def propagate(self, explicit_block: np.ndarray,
                  residual: np.ndarray) -> Tuple[np.ndarray, int]:
        """One sweep over the levels for a stacked ``n × (q·k)`` block.

        ``explicit_block`` stacks ``q ≥ 1`` explicit-belief matrices side by
        side (``q = 1`` is the plain single-query case); ``residual`` is the
        ``k × k`` scaled coupling ``Ĥ``.  Level ``g`` is computed as
        ``B_g = (S_g B_{g−1}) Ĥ`` with one in-place GEMM and one
        ``csr_matvecs`` against the previous level's rows only, alternating
        between two preallocated level-width buffers.  Returns the full
        ``n × (q·k)`` belief block (zeros on unreachable nodes) and the
        number of ``A*`` entries read.
        """
        block = np.ascontiguousarray(explicit_block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.num_nodes:
            raise ValidationError(
                f"expected a 2-D block with {self.num_nodes} rows")
        k = residual.shape[0]
        width = block.shape[1]
        if width == 0 or width % k:
            raise ValidationError(
                f"block width {width} is not a multiple of k={k}")
        beliefs = np.zeros((self.num_nodes, width))
        if self.max_level < 0:
            return beliefs, 0
        base = self.levels.nodes_at(0)
        beliefs[base] = block[base]
        if self.max_level == 0:
            return beliefs, 0
        residual = np.ascontiguousarray(residual, dtype=np.float64)
        front = np.empty((self.max_width, width))
        back = np.empty((self.max_width, width))
        scratch = np.empty((self.max_width, width))
        previous = front[:base.size]
        previous[...] = beliefs[base]
        for level in range(1, self.max_level + 1):
            slice_matrix = self.slices[level - 1]
            # Parents are summed first, then multiplied by Ĥ: the order of
            # the ΔSBP repair (_recompute_frontier), so a repaired view
            # equals a fresh sweep bit for bit, exact zeros included.
            summed = scratch[:slice_matrix.shape[0]]
            kernels.spmm(slice_matrix, previous, out=summed)
            current = back[:slice_matrix.shape[0]]
            kernels.block_matmul(summed, residual, out=current, num_classes=k)
            beliefs[self.levels.nodes_at(level)] = current
            front, back = back, front
            previous = current
        return beliefs, self.edges_per_sweep


# ---------------------------------------------------------------------- #
# the SBP plan cache (joins the engine LRU via plan.register_auxiliary_cache)
# ---------------------------------------------------------------------- #
_sbp_plan_cache = GraphKeyedCache(PLAN_CACHE_SIZE)


def get_sbp_plan(graph: Graph, labeled_nodes: Iterable[int]) -> SBPPlan:
    """Return the (cached) single-pass plan for a graph and labeled set.

    The cache key is ``(graph identity, sorted labeled-node set)``; the
    coupling does not participate because the geodesic structure is
    coupling-independent.  Entries share the engine's LRU
    discipline (:data:`repro.engine.plan.PLAN_CACHE_SIZE` entries,
    weakref-evicted when the graph dies) and are cleared by
    :func:`repro.engine.plan.clear_plan_cache`.
    """
    labeled = as_node_array(labeled_nodes)
    key = (labeled.tobytes(),)
    plan = _sbp_plan_cache.lookup(graph, key)
    if plan is None:
        with span("engine.plan_build", kind="sbp",
                  nodes=graph.num_nodes, labeled=int(labeled.size)):
            plan = SBPPlan(graph, labeled)
        PLAN_BUILDS.inc(kind="sbp")
        _sbp_plan_cache.store(graph, key, plan)
    else:
        PLAN_CACHE_HITS.inc(kind="sbp")
    return plan


def sbp_plan_cache_info() -> Dict[str, int]:
    """SBP plan cache statistics: size plus cumulative hits/misses."""
    return {"sbp_size": len(_sbp_plan_cache),
            "sbp_hits": _sbp_plan_cache.stats["hits"],
            "sbp_misses": _sbp_plan_cache.stats["misses"]}


register_auxiliary_cache(_sbp_plan_cache.clear, sbp_plan_cache_info)


# ---------------------------------------------------------------------- #
# batched SBP over one shared plan
# ---------------------------------------------------------------------- #
def run_sbp_batch(graph: Graph, coupling: CouplingMatrix,
                  explicit_list: Sequence[np.ndarray],
                  profile: bool = False
                  ) -> List[PropagationResult]:
    """Propagate many explicit-belief matrices through shared SBP plans.

    Queries are grouped by their labeled-node set (the non-zero rows of
    each matrix, exactly as :meth:`repro.core.sbp.SBP.run` determines it);
    every group shares one cached :class:`SBPPlan` and is swept as a single
    ``n × (q·k)`` stacked block, so the level structure is traversed once
    for the whole group.  Results come back in input order and match
    sequential :meth:`SBP.run` calls to floating-point round-off.

    ``profile=True`` attaches each query's traversal profile (level count, widest level,
    ``A*`` entries read — see :func:`repro.obs.profile_sbp_query`) to
    ``extra["profile"]``.
    """
    if len(explicit_list) == 0:
        return []
    k = coupling.num_classes
    checked = [checked_explicit(explicit, graph.num_nodes, k)
               for explicit in explicit_list]
    groups: "OrderedDict[bytes, Tuple[np.ndarray, List[int]]]" = OrderedDict()
    for index, matrix in enumerate(checked):
        labeled = np.nonzero(np.any(matrix != 0.0, axis=1))[0]
        key = labeled.tobytes()
        if key not in groups:
            groups[key] = (labeled, [])
        groups[key][1].append(index)
    residual = np.ascontiguousarray(coupling.residual, dtype=np.float64)
    results: List[Optional[PropagationResult]] = [None] * len(checked)
    for labeled, indices in groups.values():
        plan = get_sbp_plan(graph, labeled)
        if len(indices) == 1:
            block = checked[indices[0]]
        else:
            block = np.concatenate([checked[i] for i in indices], axis=1)
        with span("engine.sweep", engine="sbp", queries=len(indices),
                  levels=max(0, plan.max_level)):
            beliefs, edges_touched = plan.propagate(block, residual)
        SWEEPS.inc(engine="sbp")
        for position, index in enumerate(indices):
            results[index] = PropagationResult(
                beliefs=np.ascontiguousarray(
                    beliefs[:, position * k:(position + 1) * k]),
                method="SBP",
                iterations=max(0, plan.max_level),
                converged=True,
                residual_history=[],
                extra={"geodesic_numbers": plan.geodesic_numbers.copy(),
                       "edges_touched": edges_touched,
                       "epsilon": coupling.epsilon,
                       "engine": "sbp_batch",
                       "batch_size": len(checked),
                       **({"profile": profile_sbp_query(plan, edges_touched)}
                          if profile else {})},
            )
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# vectorised incremental repairs (Algorithms 3 and 4)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RepairStats:
    """Bookkeeping of one incremental repair.

    ``edges_touched`` counts parent edges read during belief recomputation
    (the Fig. 7d/7e cost proxy), ``nodes_updated`` the nodes whose geodesic
    number or belief was recomputed, and ``touched`` the sorted array of
    those nodes — the rows a relational caller must write back.
    """

    edges_touched: int
    nodes_updated: int
    touched: np.ndarray


def _recompute_frontier(adjacency: sp.csr_matrix, geodesic: np.ndarray,
                        beliefs: np.ndarray, explicit: np.ndarray,
                        residual: np.ndarray, nodes: np.ndarray) -> int:
    """Recompute ``beliefs[nodes]`` from each node's level−1 parents.

    The vectorised line 6 of Algorithms 3/4: one gather of every frontier
    node's adjacency row, a mask keeping parents exactly one level below
    their child, a sparse product summing the weighted parent beliefs,
    and a single GEMM with the residual coupling.  The parent sum runs
    through the same sparse kernel, over parents in the same ascending
    order, as :meth:`SBPPlan.propagate`, so repaired beliefs equal a full
    sweep's bit for bit.  Nodes at level 0 take their explicit beliefs;
    nodes without qualifying parents become zero (they lost their
    information source).  Returns the number of parent edges read.
    """
    levels = geodesic[nodes]
    roots = levels == 0
    if roots.any():
        beliefs[nodes[roots]] = explicit[nodes[roots]]
    work = nodes[~roots]
    if work.size == 0:
        return 0
    owner, parents, weights = neighbor_gather(adjacency, work)
    mask = geodesic[parents] == levels[~roots][owner] - 1
    owner, parents, weights = owner[mask], parents[mask], weights[mask]
    indptr = np.zeros(work.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=work.size), out=indptr[1:])
    parent_sums = sp.csr_matrix((weights, parents, indptr),
                                shape=(work.size, beliefs.shape[0]))
    beliefs[work] = (parent_sums @ beliefs) @ residual
    return int(mask.sum())


def repair_explicit_beliefs(adjacency: sp.csr_matrix, geodesic: np.ndarray,
                            beliefs: np.ndarray, explicit: np.ndarray,
                            residual: np.ndarray, nodes: np.ndarray,
                            vectors: np.ndarray) -> RepairStats:
    """Algorithm 3 (ΔSBP, new explicit beliefs) as vectorised frontier waves.

    Mutates ``geodesic``, ``beliefs`` and ``explicit`` in place.  Wave
    ``i`` visits the neighbours of wave ``i−1`` whose geodesic number is
    not already smaller than ``i`` and recomputes their beliefs from *all*
    their level-``i−1`` parents; the update stops as soon as a wave adds no
    node, so only the region whose nearest labeled node changed is touched.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    explicit[nodes] = vectors
    beliefs[nodes] = vectors
    geodesic[nodes] = 0
    nodes_updated = int(nodes.size)
    edges_touched = 0
    waves = [nodes]
    frontier = nodes
    level = 1
    while frontier.size:
        neighbors = neighbor_targets(adjacency, frontier)
        if neighbors.size == 0:
            break
        candidates = np.unique(neighbors)
        current = geodesic[candidates]
        frontier = candidates[(current == UNREACHABLE) | (current >= level)]
        if frontier.size == 0:
            break
        geodesic[frontier] = level
        edges_touched += _recompute_frontier(adjacency, geodesic, beliefs,
                                             explicit, residual, frontier)
        nodes_updated += int(frontier.size)
        waves.append(frontier)
        level += 1
    return RepairStats(edges_touched, nodes_updated,
                       np.unique(np.concatenate(waves)))


def _dedupe_minimum(nodes: np.ndarray,
                    numbers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unique nodes with the minimum associated number per node."""
    order = np.argsort(nodes, kind="stable")
    nodes, numbers = nodes[order], numbers[order]
    unique_nodes, first = np.unique(nodes, return_index=True)
    return unique_nodes, np.minimum.reduceat(numbers, first)


def repair_added_edges(adjacency: sp.csr_matrix, geodesic: np.ndarray,
                       beliefs: np.ndarray, explicit: np.ndarray,
                       residual: np.ndarray, sources: np.ndarray,
                       targets: np.ndarray) -> RepairStats:
    """Algorithm 4 (ΔSBP, new edges) as vectorised frontier waves.

    ``adjacency`` must already contain the new edges; ``sources``/``targets``
    are the endpoints of the edges just added.  Seed nodes — endpoints that
    gained a shorter (or first) geodesic path, or an additional shortest
    path of the same length — are found with one mask over the endpoint
    arrays; the repair then relaxes outwards, rewriting geodesic numbers
    where they shrink and refreshing children whose shortest-path parents
    changed beliefs, until no node changes.  Mutates ``geodesic`` and
    ``beliefs`` in place.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    endpoint_from = np.concatenate((sources, targets))
    endpoint_to = np.concatenate((targets, sources))
    from_levels = geodesic[endpoint_from]
    valid = from_levels != UNREACHABLE
    candidates = from_levels[valid] + 1
    endpoint_to = endpoint_to[valid]
    current = geodesic[endpoint_to]
    seeded = (current == UNREACHABLE) | (candidates <= current)
    if not seeded.any():
        return RepairStats(0, 0, np.empty(0, dtype=np.int64))
    frontier_nodes, frontier_numbers = _dedupe_minimum(endpoint_to[seeded],
                                                       candidates[seeded])
    geodesic[frontier_nodes] = frontier_numbers
    nodes_updated = 0
    edges_touched = 0
    waves: List[np.ndarray] = []
    while frontier_nodes.size:
        edges_touched += _recompute_frontier(adjacency, geodesic, beliefs,
                                             explicit, residual, frontier_nodes)
        nodes_updated += int(frontier_nodes.size)
        waves.append(frontier_nodes)
        owner, neighbors, _ = neighbor_gather(adjacency, frontier_nodes)
        if neighbors.size == 0:
            break
        candidates = frontier_numbers[owner] + 1
        current = geodesic[neighbors]
        improved = (current == UNREACHABLE) | (candidates < current)
        # A parent on a shortest path changed its belief, so the child must
        # be refreshed even though its geodesic number is stable.  (Between
        # waves geodesic[frontier_nodes] == frontier_numbers, so this equals
        # the sequential algorithm's geodesic[parent] + 1 == current test.)
        refreshed = candidates == current
        selected = improved | refreshed
        if not selected.any():
            break
        frontier_nodes, frontier_numbers = _dedupe_minimum(
            neighbors[selected], candidates[selected])
        # Every selected candidate is <= the node's current level (or the
        # node was unreachable), so the minimum is the new geodesic number.
        geodesic[frontier_nodes] = frontier_numbers
    return RepairStats(edges_touched, nodes_updated,
                       np.unique(np.concatenate(waves)) if waves
                       else np.empty(0, dtype=np.int64))
