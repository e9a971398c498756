"""The correctness gate: every ``ok`` reply against an in-process reference.

Runs after the timed phase.  A wrong answer raises :class:`WrongAnswer`
naming the request; it is never counted as a metric.

* Queries (all workloads): ``labels``, ``iterations`` and ``converged``
  must equal :func:`repro.engine.batch.run_batch` on the graph at the
  reply's snapshot version.  A node whose top two beliefs lie within
  :data:`TIE` of each other may carry either label.
* ``stream-views`` updates must report the next snapshot version, and a
  ``read_view`` must return the rows of a from-scratch
  :func:`repro.core.sbp.sbp` on the graph and labels after the update it
  follows, to :data:`VIEW_TOLERANCE`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.sbp import sbp
from repro.engine.batch import run_batch
from repro.engine.plan import get_plan
from repro.graphs.graph import Graph

from loadgen import Sample
from workloads import Workload

TIE = 1e-9
VIEW_TOLERANCE = 1e-10
#: Reference solves stacked per ``run_batch`` call.
REFERENCE_BATCH = 16
#: Rows the server echoes at its default ``limit``.
LIMIT = 10


class WrongAnswer(Exception):
    """A reply that disagrees with the reference."""


def _name(sample: Sample) -> str:
    return f"{sample.kind} #{sample.position} (key {sample.key})"


class _Versions:
    """Graphs of the ``stream-views`` update chain, by snapshot version."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.graphs: Dict[int, Graph] = {workload.base_version:
                                         workload.graph}
        self._adjacency = workload.graph.adjacency
        self._latest = workload.base_version

    def graph(self, version: int) -> Graph:
        updates = self.workload.updates
        while self._latest < version:
            index = self._latest - self.workload.base_version
            if index >= len(updates):
                raise KeyError(version)
            edges = np.array(updates[index][0])
            n = self._adjacency.shape[0]
            delta = sp.coo_matrix(
                (np.ones(2 * len(edges)),
                 (np.concatenate([edges[:, 0], edges[:, 1]]),
                  np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(n, n))
            self._adjacency = (self._adjacency + delta).tocsr()
            self._adjacency.sum_duplicates()
            self._adjacency.sort_indices()
            self._latest += 1
            self.graphs[self._latest] = Graph(self._adjacency,
                                              validate=False)
        return self.graphs[version]


def _expected_labels(beliefs: np.ndarray, names: Sequence[str]
                     ) -> Tuple[List[list], np.ndarray]:
    nonzero = np.nonzero(np.any(beliefs != 0.0, axis=1))[0][:LIMIT]
    rows = beliefs[nonzero]
    labels = np.argmax(rows, axis=1)
    ordered = np.sort(rows, axis=1)
    ties = (ordered[:, -1] - ordered[:, -2]) < TIE
    return [[int(node), names[int(label)]]
            for node, label in zip(nonzero, labels)], ties


def check(workload: Workload, samples: Sequence[Sample]) -> int:
    """Check every ``ok`` reply; return how many were checked."""
    queries = [s for s in samples if s.ok and s.kind == "query"]
    versions = _Versions(workload)
    groups: Dict[int, List[Sample]] = {}
    bodies: Dict[int, dict] = {}
    for sample in queries:
        body = json.loads(sample.reply)
        bodies[id(sample)] = body
        version = body.get("snapshot_version", workload.base_version)
        groups.setdefault(version, []).append(sample)
    names = [workload.coupling.name_of(k)
             for k in range(workload.coupling.num_classes)]
    for version, members in sorted(groups.items()):
        try:
            graph = versions.graph(version)
        except KeyError:
            raise WrongAnswer(f"{_name(members[0])}: reply names snapshot "
                              f"version {version}, which no update made")
        plan = get_plan(graph, workload.coupling)
        keys = sorted({sample.key for sample in members})
        reference = {}
        for start in range(0, len(keys), REFERENCE_BATCH):
            chunk = keys[start:start + REFERENCE_BATCH]
            results = run_batch(plan, [workload.pool[key] for key in chunk],
                                max_iterations=workload.max_iterations)
            reference.update(zip(chunk, results))
        for sample in members:
            _check_query(sample, bodies[id(sample)], reference[sample.key],
                         names)
    checked = len(queries)
    if workload.updates:
        checked += _check_stream(workload, samples, versions)
    return checked


def _check_query(sample: Sample, body: dict, result, names) -> None:
    if body.get("iterations") != result.iterations:
        raise WrongAnswer(f"{_name(sample)}: iterations "
                          f"{body.get('iterations')} != reference "
                          f"{result.iterations}")
    if body.get("converged") != result.converged:
        raise WrongAnswer(f"{_name(sample)}: converged "
                          f"{body.get('converged')} != reference "
                          f"{result.converged}")
    expected, ties = _expected_labels(result.beliefs, names)
    labels = body.get("labels")
    if not isinstance(labels, list) or len(labels) != len(expected):
        raise WrongAnswer(f"{_name(sample)}: {labels!r} is not "
                          f"{len(expected)} label rows")
    for got, want, tie in zip(labels, expected, ties):
        if got[0] != want[0] or (got[1] != want[1] and not tie):
            raise WrongAnswer(f"{_name(sample)}: label row {got} != "
                              f"reference {want}")


def _check_stream(workload: Workload, samples: Sequence[Sample],
                  versions: _Versions) -> int:
    explicit = workload.view_explicit.copy()
    applied = 0
    checked = 0
    writes = sorted((s for s in samples if s.ok and s.kind != "query"),
                    key=lambda s: s.position)
    for sample in writes:
        body = json.loads(sample.reply)
        if sample.kind == "update":
            want = workload.base_version + sample.key + 1
            if body.get("version") != want:
                raise WrongAnswer(f"{_name(sample)}: version "
                                  f"{body.get('version')} != {want}")
            continue
        while applied <= sample.key:
            _, nodes, vectors = workload.updates[applied]
            explicit[nodes] = vectors
            applied += 1
        graph = versions.graph(workload.base_version + sample.key + 1)
        beliefs = sbp(graph, workload.view_coupling, explicit).beliefs
        nonzero = np.nonzero(np.any(beliefs != 0.0, axis=1))[0][:LIMIT]
        rows = body.get("beliefs")
        if not isinstance(rows, list) or len(rows) != len(nonzero):
            raise WrongAnswer(f"{_name(sample)}: {rows!r} is not "
                              f"{len(nonzero)} belief rows")
        for got, node in zip(rows, nonzero):
            values = np.asarray(got[1], dtype=float)
            if got[0] != int(node) or values.shape != beliefs[node].shape \
                    or np.max(np.abs(values - beliefs[node])) \
                    > VIEW_TOLERANCE:
                want = [int(node), beliefs[node].tolist()]
                raise WrongAnswer(f"{_name(sample)}: view row {got} != "
                                  f"reference {want}")
        checked += 1
    return checked + sum(1 for s in writes if s.kind == "update")
