"""Launch ``repro serve`` with timers around each layer's entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 servebench/tracer.py serve --async --port 0

The launcher wraps the public entry points listed in :data:`LAYERS`,
hands over to the CLI, and when the server has shut down prints the
ledger as one JSON line on standard output.  Each wrapped call is a span
timed in wall time (``time.perf_counter``) and thread CPU time
(``time.thread_time``); its parent is the wrapped call that was open on
the same thread when it started.  A request is the outermost span on a
thread, which on the serving path is always
``ServiceSession.handle_line``.  Spans are folded into per-request,
per-layer self times as they run (see :class:`Ledger`); the span trees
of the first :data:`KEEP_TREES` requests are kept whole.

The program under test is not modified: every wrapper is installed on a
module or class attribute that the serving path looks up at call time.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from typing import Dict, List

#: layer -> (module, attribute path) of every wrapped entry point.
LAYERS: Dict[str, List[tuple]] = {
    "protocol": [("repro.service.protocol", "ServiceSession.handle_line")],
    "service": [("repro.service.service", "PropagationService.query"),
                ("repro.service.service", "PropagationService.update"),
                ("repro.service.service", "PropagationService.create_view"),
                ("repro.service.service", "PropagationService.view_result")],
    "coalescer": [("repro.service.coalescer", "MicroBatcher.submit")],
    "plan": [("repro.engine.plan", "get_plan"),
             ("repro.engine.sbp_plan", "get_sbp_plan")],
    "batch": [("repro.engine.batch", "run_batch")],
    "kernels": [("repro.engine.kernels", "spmm"),
                ("repro.engine.kernels", "block_matmul"),
                ("repro.engine.kernels", "scale_rows"),
                ("repro.engine.kernels", "max_abs_change_per_query")],
    "sbp_plan": [("repro.engine.sbp_plan", "repair_added_edges"),
                 ("repro.engine.sbp_plan", "repair_explicit_beliefs"),
                 ("repro.engine.sbp_plan", "SBPPlan.propagate")],
    "graph": [("repro.graphs.graph", "Graph.from_edges"),
              ("repro.graphs.graph", "Graph.with_edges_added")],
}

#: Requests whose whole span tree is kept, for checking that spans nest.
KEEP_TREES = 20

_OP = re.compile(r'"op"\s*:\s*"([^"]*)"')


def _sweep_bytes(plan, width: int) -> int:
    """Bytes the kernels of one ``BatchWorkspace.step`` read and write.

    Computed from the plan's ``nnz`` and ``n`` and the batch width ``w``
    (queries x classes), counting each operand once per pass: the CSR
    arrays once, ``n x w`` blocks twice for the ``Ĥ`` GEMM, three times
    for the accumulating SpMM (input, output read and written), four
    times for the echo GEMM and row scaling, six times for the
    subtract/abs/max convergence test.
    """
    adjacency = plan.adjacency
    itemsize = adjacency.data.itemsize
    block = plan.num_nodes * width * itemsize
    passes = 2 + 3 + 6 + (4 if plan.echo_cancellation else 0)
    return (adjacency.data.nbytes + adjacency.indices.nbytes
            + adjacency.indptr.nbytes + passes * block
            + (plan.num_nodes * itemsize if plan.echo_cancellation else 0))


class Ledger:
    """Spans folded into per-request records, thread by thread.

    Time is charged event by event: at every span start and end both
    clocks are read once, and the interval since the thread's previous
    event goes to the innermost open span.  A layer's self time is the
    sum of its intervals, so the self times of one request add up to its
    root span exactly, and neither self time can be negative.

    ``requests`` holds one ``[start, wall, cpu, op, {layer: [calls, self
    wall, self cpu]}, computed sweep bytes]`` per request; ``trees`` one
    ``[name, layer, parent index, start, end, cpu]`` list per kept tree.
    """

    def __init__(self):
        self._local = threading.local()
        self.requests: List[list] = []
        self.trees: List[list] = []

    def wrap(self, layer: str, name: str, function):
        ledger = self
        batch = layer == "batch"

        def timed(*args, **kwargs):
            wall = time.perf_counter()
            cpu = time.thread_time()
            local = ledger._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                totals = local.totals[stack[-1][0]]
                totals[1] += wall - local.wall
                totals[2] += cpu - local.cpu
            else:
                local.totals = {}
                local.bytes = 0
                local.op = _op_of(args) if layer == "protocol" else name
                local.tree = [] if len(ledger.trees) < KEEP_TREES else None
                local.start = (wall, cpu)
            totals = local.totals.get(layer)
            if totals is None:
                totals = local.totals[layer] = [0, 0.0, 0.0]
            totals[0] += 1
            tree = local.tree
            index = -1
            if tree is not None:
                index = len(tree)
                tree.append([name, layer, stack[-1][1] if stack else -1,
                             wall, wall, cpu])
            stack.append((layer, index))
            local.wall, local.cpu = wall, cpu
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter()
                cpu = time.thread_time()
                totals[1] += wall - local.wall
                totals[2] += cpu - local.cpu
                local.wall, local.cpu = wall, cpu
                stack.pop()
                if batch and result:
                    local.bytes += _sweep_bytes(
                        args[0], len(args[1]) * args[0].num_classes) \
                        * max(item.iterations for item in result)
                if tree is not None:
                    span = tree[index]
                    span[4], span[5] = wall, cpu - span[5]
                if not stack:
                    start_wall, start_cpu = local.start
                    ledger.requests.append([start_wall, wall - start_wall,
                                            cpu - start_cpu, local.op,
                                            local.totals, local.bytes])
                    if tree is not None:
                        ledger.trees.append(tree)

        timed.__wrapped__ = function
        return timed

    def dump(self, stream) -> None:
        stream.write(json.dumps({"requests": self.requests,
                                 "trees": self.trees}) + "\n")
        stream.flush()


def _op_of(args: tuple) -> str:
    line = args[1] if len(args) > 1 else ""
    match = _OP.search(line[:200]) if isinstance(line, str) else None
    return match.group(1) if match else "?"


def install(ledger: Ledger) -> None:
    """Wrap every entry point in :data:`LAYERS` with ``ledger``'s timers."""
    import importlib

    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(ledger.wrap(layer, path, raw.__func__))
            else:
                wrapped = ledger.wrap(layer, path, raw)
            setattr(owner, attribute, wrapped)


def main(argv: List[str]) -> int:
    ledger = Ledger()
    install(ledger)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    ledger.dump(sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
