"""Seeded inputs of the three serving workloads.

Every input the server receives -- the graph, the couplings, the label
sets, the edge and belief updates -- is built here from the workload seed,
and every request line is encoded before any timing starts.  The graphs
are fixed members of the paper's Kronecker suite (Fig. 6a, suite seed 0);
the seed drives only the label sets, the repeat pattern and the update
chain, so two seeds exercise the same shapes with different inputs.

Why each workload exists is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import max_epsilon_exact
from repro.coupling.matrices import CouplingMatrix
from repro.datasets.kronecker_suite import kronecker_suite
from repro.datasets.synthetic_labels import (
    sample_explicit_beliefs,
    sample_explicit_nodes,
)
from repro.graphs.graph import Graph

WORKLOADS = ("burst-topk", "solo-deep", "stream-views")

#: Request lines stay below asyncio's default 64 KiB ``StreamReader``
#: limit, which ``repro serve --async`` keeps: a longer line resets the
#: connection without a reply (see NOTES.md).
MAX_LINE_BYTES = 48 * 1024

#: Distinct label sets per workload.  Sequences cycle through the pool.
#: A label set is last used at most 64 positions (48 fresh label sets)
#: after its fresh use, so more than 256 other results (the server's
#: default result-cache capacity) are stored before it comes round again:
#: its cached result has been evicted and the query is a miss, exactly
#: like a fresh one.
POOL_SIZE = 384

#: stream-views: updates the writer can send before it stops writing.
UPDATES = 600

#: burst-topk: every 4th request repeats a fresh one sent 32..64 requests
#: earlier.
REPEAT_EVERY = 4
REPEAT_GAP = (32, 64)

GRAPH_NAME = "g"
COUPLING = "h"
VIEW_COUPLING = "h_sbp"
VIEW_NAME = "fraud"


def encode(request: dict) -> bytes:
    """One compact JSON request line, newline-terminated."""
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def belief_triples(explicit: np.ndarray) -> List[list]:
    """Wire rows ``[node, class, value]`` for every labeled node."""
    rows = []
    for node in np.nonzero(np.any(explicit != 0.0, axis=1))[0]:
        for klass in range(explicit.shape[1]):
            rows.append([int(node), klass, float(explicit[node, klass])])
    return rows


@dataclass
class Request:
    """One pre-encoded request and what the gate needs to check it.

    ``key`` is the label-set index (queries), the update index (updates
    and the ``read_view`` that follows one), or ``None`` (setup lines).
    """

    kind: str
    line: bytes
    key: Optional[int] = None


@dataclass
class Workload:
    """Everything one run sends, plus the state its references need."""

    name: str
    graph: Graph
    coupling: CouplingMatrix
    setup: List[Request]
    pool: List[np.ndarray]
    queries: List[Request]
    max_iterations: int = 100
    #: burst-topk: sequence position -> pool index, and the position a
    #: repeat copies (-1 for fresh requests).
    order: Optional[np.ndarray] = None
    source: Optional[np.ndarray] = None
    #: stream-views: the SBP view's coupling and labels, and the update
    #: chain as (new edges, newly labeled nodes, their belief rows).
    view_coupling: Optional[CouplingMatrix] = None
    view_explicit: Optional[np.ndarray] = None
    updates: List[Tuple[List[Tuple[int, int]], np.ndarray, np.ndarray]] = \
        field(default_factory=list)
    writes: List[Request] = field(default_factory=list)
    #: Snapshot version once the chunked graph load is done.
    base_version: int = 0
    #: (connections, requests in flight per connection) of the query load.
    connections: int = 1
    depth: int = 1

    def query(self, position: int) -> Tuple[Request, int]:
        """The query at one sequence position and the position it repeats."""
        if self.order is None:
            return self.queries[position % len(self.queries)], -1
        return (self.queries[int(self.order[position])],
                int(self.source[position]))


def _derive(seed: int, *purpose: int) -> int:
    """An independent integer seed for one use of the workload seed."""
    return int(np.random.SeedSequence([seed, *purpose]).generate_state(1)[0])


def _suite_graph(index: int) -> Tuple[Graph, CouplingMatrix]:
    workload = kronecker_suite(max_index=index)[index - 1]
    return workload.graph, workload.coupling


def _label_pool(graph: Graph, seed: int) -> List[np.ndarray]:
    """:data:`POOL_SIZE` explicit-belief matrices, each labeling a fresh 5%.

    Node sets are drawn per query; belief values once per node and seed
    (the paper's scheme, :func:`sample_explicit_beliefs`), so a node
    carries the same prior in every query that labels it.
    """
    n = graph.num_nodes
    priors = sample_explicit_beliefs(n, 3, range(n), seed=_derive(seed, 0))
    pool = []
    for item in range(POOL_SIZE):
        nodes = sample_explicit_nodes(n, 0.05, seed=_derive(seed, 1, item))
        explicit = np.zeros_like(priors)
        explicit[nodes] = priors[nodes]
        pool.append(explicit)
    return pool


def _load_requests(graph: Graph) -> List[Request]:
    """``load_graph`` with the first edge chunk, then ``update`` chunks.

    Each line stays under :data:`MAX_LINE_BYTES`.
    """
    edges = [[edge.source, edge.target] for edge in graph.edges()]
    chunks: List[List[list]] = [[]]
    size = 0
    for edge in edges:
        width = len(json.dumps(edge, separators=(",", ":"))) + 1
        if size + width > MAX_LINE_BYTES - 256:
            chunks.append([])
            size = 0
        chunks[-1].append(edge)
        size += width
    requests = [Request("load_graph", encode({
        "op": "load_graph", "v": 1, "name": GRAPH_NAME,
        "num_nodes": graph.num_nodes, "edges": chunks[0]}))]
    for chunk in chunks[1:]:
        requests.append(Request("update", encode({
            "op": "update", "v": 1, "graph": GRAPH_NAME, "edges": chunk})))
    return requests


def _coupling_request(name: str, coupling: CouplingMatrix) -> Request:
    return Request("load_coupling", encode({
        "op": "load_coupling", "v": 1, "name": name,
        "residual": coupling.unscaled_residual.tolist(),
        "epsilon": coupling.epsilon,
        "classes": [coupling.name_of(k) for k in range(coupling.num_classes)]}))


def _query_requests(pool: List[np.ndarray], extra: Dict[str, object]
                    ) -> List[Request]:
    return [Request("query", encode({
        "op": "query", "v": 1, "graph": GRAPH_NAME, "coupling": COUPLING,
        "method": "linbp", **extra, "beliefs": belief_triples(explicit)}),
        key=index) for index, explicit in enumerate(pool)]


def _repeat_order(seed: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pool index per position, and the position each repeat copies.

    A repeat always copies a fresh position (its gap is not a multiple
    of :data:`REPEAT_EVERY`), so a label set is never used again more
    than ``REPEAT_GAP[1]`` positions after its fresh use.
    """
    positions = np.arange(length)
    repeats = (positions % REPEAT_EVERY == REPEAT_EVERY - 1) \
        & (positions >= REPEAT_GAP[1])
    gaps = np.array([gap for gap in range(REPEAT_GAP[0], REPEAT_GAP[1] + 1)
                     if gap % REPEAT_EVERY])
    source = np.full(length, -1, dtype=np.int64)
    rng = np.random.default_rng(_derive(seed, 2))
    source[repeats] = positions[repeats] - rng.choice(
        gaps, size=int(repeats.sum()))
    order = np.zeros(length, dtype=np.int64)
    order[~repeats] = np.arange(int((~repeats).sum())) % POOL_SIZE
    order[repeats] = order[source[repeats]]
    return order, source


def build(name: str, seed: int, graph_index: Optional[int] = None
          ) -> Workload:
    """Generate one workload's inputs from its seed.

    ``graph_index`` picks a smaller suite graph for the self-tests; runs
    that report metrics use the workload's own graph.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    default_index = 3 if name == "solo-deep" else 4
    graph, unscaled = _suite_graph(graph_index or default_index)
    if name == "solo-deep":
        # Lemma 8: 0.9 of the largest convergent scale, so queries need
        # well over a hundred sweeps to reach the 1e-10 tolerance.  The
        # eigensolver behind the threshold varies in its last digits from
        # run to run; four significant digits keep the scale fixed.
        scale = 0.9 * max_epsilon_exact(graph, unscaled)
        coupling = unscaled.scaled(float(f"{scale:.4g}"))
    else:
        coupling = unscaled.scaled(0.001)
    pool = _label_pool(graph, seed)
    setup = _load_requests(graph)
    base_version = len(setup) - 1
    setup.append(_coupling_request(COUPLING, coupling))
    workload = Workload(name=name, graph=graph, coupling=coupling,
                        setup=setup, pool=pool, queries=[],
                        base_version=base_version)
    if name == "burst-topk":
        workload.queries = _query_requests(pool, {})
        workload.order, workload.source = _repeat_order(seed, 1 << 17)
        workload.connections, workload.depth = 2, 8
    elif name == "solo-deep":
        workload.max_iterations = 300
        workload.queries = _query_requests(pool, {"max_iterations": 300})
    else:
        workload.queries = _query_requests(pool, {})
        _add_view_stream(workload, unscaled, seed)
    return workload


def _add_view_stream(workload: Workload, unscaled: CouplingMatrix,
                     seed: int) -> None:
    """The maintained SBP view and the writer's update chain.

    Each update adds two edges absent from the graph so far and explicit
    beliefs for 1 permille of the nodes, on nodes never labeled before
    (so a from-scratch SBP with the accumulated labels is the reference).
    """
    graph = workload.graph
    n = graph.num_nodes
    workload.view_coupling = unscaled
    nodes = sample_explicit_nodes(n, 0.05, seed=_derive(seed, 3))
    workload.view_explicit = sample_explicit_beliefs(
        n, 3, nodes, seed=_derive(seed, 4))
    workload.setup.append(_coupling_request(VIEW_COUPLING, unscaled))
    workload.setup.append(Request("view", encode({
        "op": "view", "v": 1, "graph": GRAPH_NAME, "name": VIEW_NAME,
        "coupling": VIEW_COUPLING, "method": "sbp",
        "beliefs": belief_triples(workload.view_explicit)})))
    rng = np.random.default_rng(_derive(seed, 5))
    coo = graph.adjacency.tocoo()
    present = set(zip(coo.row.tolist(), coo.col.tolist()))
    unlabeled = np.setdiff1d(np.arange(n), nodes)
    rng.shuffle(unlabeled)
    per_update = max(1, int(round(0.001 * n)))
    update_count = min(UPDATES, unlabeled.size // per_update)
    read = encode({"op": "read_view", "v": 1, "graph": GRAPH_NAME,
                   "name": VIEW_NAME})
    for index in range(update_count):
        edges: List[Tuple[int, int]] = []
        while len(edges) < 2:
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            if a != b and (a, b) not in present:
                present.update(((a, b), (b, a)))
                edges.append((a, b))
        targets = unlabeled[index * per_update:(index + 1) * per_update]
        beliefs = sample_explicit_beliefs(n, 3, targets,
                                          seed=_derive(seed, 6, index))
        workload.updates.append((edges, targets, beliefs[targets]))
        workload.writes.append(Request("update", encode({
            "op": "update", "v": 1, "graph": GRAPH_NAME,
            "coupling": VIEW_COUPLING, "edges": [list(e) for e in edges],
            "beliefs": belief_triples(beliefs)}), key=index))
        workload.writes.append(Request("read_view", read, key=index))
