"""Self-tests of the serving benchmark, at a tiny size.

Run from the repository root::

    python3 -m pytest servebench/selftest.py -q

Each test drives a real ``repro serve --async`` child on Kronecker graph
#2 for about a second.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gate  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

TINY_GRAPH = 2
TINY_ARGS = ["--graph-index", str(TINY_GRAPH), "--seconds", "1",
             "--warmup", "0.5", "--setups", "1"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _tiny(name: str, seed: int = 5, traced: bool = False):
    workload = workloads.build(name, seed, graph_index=TINY_GRAPH)
    measured = asyncio.run(loadgen.measure(workload, 1.0, traced, setups=1,
                                           warmup=0.5))
    return workload, measured


def _body(sample) -> dict:
    return json.loads(sample.reply)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_printed_once_with_its_unit(name, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--trace", str(trace), *TINY_ARGS],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    report = "\n".join(lines[:-1])
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = re.findall(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                             rf"{re.escape(metric['unit'])}$", report,
                             flags=re.MULTILINE)
        assert len(printed) == 1, (metric["name"], report)


def test_spans_nest_and_self_times_sum_to_the_request():
    _, traced = _tiny("stream-views", traced=True)
    ledger = traced.ledger
    layers = set()
    for tree in ledger["trees"]:
        children = {index: [] for index in range(len(tree))}
        for index, (_, layer, parent, start, end, cpu) in enumerate(tree):
            layers.add(layer)
            assert start <= end and cpu >= 0.0
            if parent >= 0:
                assert parent < index
                assert tree[parent][3] <= start and end <= tree[parent][4]
                children[parent].append(index)
        self_times = []
        for index, span in enumerate(tree):
            duration = span[4] - span[3]
            inner = sum(tree[c][4] - tree[c][3] for c in children[index])
            assert duration - inner >= -1e-12
            self_times.append(duration - inner)
        assert sum(self_times) == pytest.approx(tree[0][4] - tree[0][3],
                                                rel=1e-9, abs=1e-12)
    assert {"protocol", "service", "coalescer", "plan", "batch", "kernels",
            "sbp_plan", "graph"} <= layers
    for start, wall, cpu, op, totals, _ in ledger["requests"]:
        assert all(calls >= 1 and self_wall >= 0.0 and self_cpu >= 0.0
                   for calls, self_wall, self_cpu in totals.values())
        assert sum(total[1] for total in totals.values()) == \
            pytest.approx(wall, rel=1e-9, abs=1e-12)


def test_seed_changes_only_the_generated_inputs():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 1, graph_index=TINY_GRAPH)
        second = workloads.build(name, 2, graph_index=TINY_GRAPH)
        a, b = first.graph.adjacency, second.graph.adjacency
        assert (a != b).nnz == 0
        assert first.coupling.epsilon == second.coupling.epsilon
        loads = first.base_version + 1
        assert [r.line for r in first.setup[:loads + 1]] == \
            [r.line for r in second.setup[:loads + 1]]
        assert (first.connections, first.depth, len(first.queries),
                len(first.writes)) == (second.connections, second.depth,
                                       len(second.queries),
                                       len(second.writes))
        assert all(x.line != y.line
                   for x, y in zip(first.queries, second.queries))
        assert all(x.line != y.line for x, y in zip(first.writes,
                                                    second.writes)
                   if x.kind == "update")
        if first.source is not None:
            assert ((first.source >= 0) == (second.source >= 0)).all()
            assert (first.source != second.source).any()


def test_oversized_line_is_counted_as_failed():
    oversized = loadgen.Request(
        "query", b'{"op":"ping","pad":"' + b"x" * 70_000 + b'"}\n')
    ping = loadgen.Request("query", b'{"op":"ping","v":1}\n')

    async def scenario():
        server = loadgen.Server(loadgen.server_argv(False))
        await server.start()
        try:
            source = loadgen.Source(
                lambda position: ((oversized, ping)[position], -1), limit=2)
            log = []
            await loadgen.drive([loadgen.Stream(source, 1)], server.address,
                                time.perf_counter() + 10.0, log)
            return log
        finally:
            await server.stop()

    log = asyncio.run(scenario())
    assert [sample.position for sample in log] == [0, 1]
    assert log[0].failure is not None
    assert log[0].failure.startswith("connection dropped")
    assert log[1].ok


def _corrupt(sample, body: dict) -> None:
    sample.reply = (json.dumps(body) + "\n").encode()


def test_gate_fails_the_run_on_a_corrupted_reply():
    workload, measured = _tiny("stream-views")
    assert gate.check(workload, measured.samples) > 0
    names = [workload.coupling.name_of(k) for k in range(3)]
    query = next(s for s in measured.measured
                 if s.ok and s.kind == "query")
    original = query.reply
    body = _body(query)
    node, label = body["labels"][0]
    body["labels"][0] = [node, names[(names.index(label) + 1) % 3]]
    _corrupt(query, body)
    with pytest.raises(gate.WrongAnswer, match=f"query #{query.position} "):
        gate.check(workload, measured.samples)
    query.reply = original
    view = next(s for s in measured.samples
                if s.ok and s.kind == "read_view")
    body = _body(view)
    body["beliefs"][0][1][0] += 1e-6
    _corrupt(view, body)
    with pytest.raises(gate.WrongAnswer,
                       match=f"read_view #{view.position} "):
        gate.check(workload, measured.samples)


def test_counts_repeat_on_solo_deep():
    for _ in range(2):
        workload, measured = _tiny("solo-deep", seed=7)
        gate.check(workload, measured.samples)
        counts = measured.counts.values
        queries = [s for s in measured.measured if s.kind == "query"]
        assert queries and all(s.ok for s in queries)
        assert counts["batches"] == counts["queries"] == len(queries)
        assert counts["sweeps"] == sum(_body(s)["iterations"]
                                       for s in queries)
        assert counts["plan_builds"] == 0


def test_burst_hit_ratio_equals_its_repeat_share():
    workload, measured = _tiny("burst-topk")
    gate.check(workload, measured.samples)
    queries = [s for s in measured.measured if s.kind == "query"]
    assert queries and all(s.ok for s in queries)
    repeats = sum(1 for s in queries if workload.source[s.position] >= 0)
    counts = measured.counts.values
    assert repeats > 0
    assert counts["cache_lookups"] == len(queries)
    assert counts["cache_hits"] == repeats
