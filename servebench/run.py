"""Wire-to-kernel serving benchmark for ``repro serve --async``.

Usage, from the repository root::

    python3 servebench/run.py --workload solo-deep --seed 1 --seconds 40 --trace 0

One run launches the server as a child process with default flags,
loads the workload's graph and couplings over the wire, drives it with a
closed-loop client for ``--seconds``, checks every reply against an
in-process reference and prints a report.  The last line of standard
output is a JSON object: with ``--trace 0`` it carries the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the run is repeated
through the timing launcher (``tracer.py``), half the time untraced and
half traced, and the line carries the per-layer metrics.  Exit status: 0
when every reply was right, 1 on a wrong answer, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop traffic before the measured phase (plans built, caches warm).
WARMUP_SECONDS = 2.0
#: Seconds the servers may run in all, so that a stuck run still ends
#: (with status 2) inside three minutes, generation and gate included.
RUN_TIMEOUT = 150.0


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _latencies_ms(run: "loadgen.Run", kind: str) -> List[float]:
    return [1000.0 * s.latency for s in run.ok if s.kind == kind]


def end_to_end(run: "loadgen.Run") -> Dict[str, float]:
    queries = _latencies_ms(run, "query")
    updates = _latencies_ms(run, "update")
    views = _latencies_ms(run, "read_view")
    return {
        "setup_s": statistics.median(run.setup_s),
        "throughput_rps": len(run.ok) / (run.end - run.start),
        "query_mean_ms": statistics.fmean(queries) if queries else 0.0,
        "query_p50_ms": _percentile(queries, 50),
        "query_p90_ms": _percentile(queries, 90),
        "query_p99_ms": _percentile(queries, 99),
        "update_p50_ms": _percentile(updates, 50),
        "view_p50_ms": _percentile(views, 50),
        "server_cpu_ms": 1000.0 * run.cpu_s / max(len(run.ok), 1),
        "peak_rss_mb": run.peak_rss_mb,
        "failed_share": (len(run.measured) - len(run.ok))
        / max(len(run.measured), 1),
    }


LAYER_NAMES = ("protocol", "service", "coalescer", "plan", "batch",
               "kernels", "sbp_plan", "graph")


def _measured_requests(run: "loadgen.Run") -> List[list]:
    """Ledger requests that started inside the measured phase."""
    return [request for request in run.ledger["requests"]
            if run.start <= request[0] <= run.end]


def per_layer(traced: "loadgen.Run",
              untraced: "loadgen.Run") -> Dict[str, float]:
    requests = _measured_requests(traced)
    count = max(len(requests), 1)
    totals = {layer: [0, 0.0, 0.0] for layer in LAYER_NAMES}
    for request in requests:
        for layer, (calls, wall, cpu) in request[4].items():
            total = totals[layer]
            total[0] += calls
            total[1] += wall
            total[2] += cpu
    busy_all = sum(total[2] for total in totals.values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer, (calls, wall, cpu) in totals.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.busy_ms"] = 1000.0 * cpu / count
        metrics[f"{layer}.wait_ms"] = 1000.0 * (wall - cpu) / count
        metrics[f"{layer}.share"] = cpu / busy_all
    counts = traced.counts.values
    client = sum(s.latency for s in traced.ok)
    handled = sum(request[1] for request in requests)
    metrics["aserve.overhead_ms"] = 1000.0 * (client - handled) / count
    metrics["aserve.rejected"] = counts["rejected"]
    metrics["service.cache_hit_ratio"] = \
        counts["cache_hits"] / max(counts["cache_lookups"], 1)
    metrics["coalescer.batch_size"] = \
        counts["batched_requests"] / max(counts["batches"], 1)
    metrics["plan.builds"] = counts["plan_builds"]
    metrics["batch.sweeps_per_query"] = \
        counts["sweeps"] / max(counts["queries"], 1)
    metrics["kernels.bytes_per_sweep"] = \
        sum(request[5] for request in requests) \
        / max(counts["sweeps"], 1)
    metrics["sbp_plan.nodes_updated"] = \
        counts["nodes_updated"] / max(counts["updates"], 1)
    base = end_to_end(untraced)["server_cpu_ms"]
    metrics["trace.overhead"] = \
        end_to_end(traced)["server_cpu_ms"] / base - 1.0 if base else 0.0
    return metrics


def op_split(traced: "loadgen.Run"
             ) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Per request kind: each layer's (busy, wall) self ms per request."""
    split: Dict[str, Dict[str, List[float]]] = {}
    kinds: Dict[str, int] = {}
    for request in _measured_requests(traced):
        op = request[3]
        kinds[op] = kinds.get(op, 0) + 1
        layers = split.setdefault(op, {})
        for layer, (_, wall, cpu) in request[4].items():
            total = layers.setdefault(layer, [0.0, 0.0])
            total[0] += cpu
            total[1] += wall
    return {op: {layer: (1000.0 * cpu / kinds[op], 1000.0 * wall / kinds[op])
                 for layer, (cpu, wall) in layers.items()}
            for op, layers in split.items()}


# ---------------------------------------------------------------------- #
# report
# ---------------------------------------------------------------------- #
def host_context(seed: int, steal_s: float) -> Dict[str, object]:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"seed": seed, "cpus": os.cpu_count(),
            "steal_s": round(steal_s, 3),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _select(spec_metrics: List[dict], values: Dict[str, float]
            ) -> Dict[str, dict]:
    selected = {}
    for metric in spec_metrics:
        if metric["name"] not in values:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        selected[metric["name"]] = {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
    return selected


def _print_table(title: str, rows: Dict[str, dict]) -> None:
    print(title)
    for name, metric in rows.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")


ALL_E2E_UNITS = {"setup_s": "s", "throughput_rps": "1/s",
                 "query_mean_ms": "ms", "query_p50_ms": "ms",
                 "query_p90_ms": "ms", "query_p99_ms": "ms",
                 "update_p50_ms": "ms", "view_p50_ms": "ms",
                 "server_cpu_ms": "ms", "peak_rss_mb": "MB",
                 "failed_share": "fraction"}


def report(args, workload, runs: List["loadgen.Run"],
           checked: int) -> Dict[str, dict]:
    spec = _benchmark_spec()
    untraced = runs[0]
    steal = sum(run.steal_s for run in runs)
    print(f"servebench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + " ".join(f"{key}={value}" for key, value
                               in host_context(args.seed, steal).items()))
    e2e = end_to_end(untraced)
    applicable = {name: value for name, value in e2e.items()
                  if workload.updates
                  or name not in ("update_p50_ms", "view_p50_ms")}
    _print_table(f"end-to-end ({len(untraced.measured)} requests, "
                 f"{len(_latencies_ms(untraced, 'query'))} queries, "
                 f"{'traced' if untraced.traced else 'untraced'}):",
                 {name: {"value": value, "unit": ALL_E2E_UNITS[name]}
                  for name, value in applicable.items()})
    queries = _latencies_ms(untraced, "query")
    print(f"query latency ({len(queries)} samples): " + " ".join(
        f"p{q}={_percentile(queries, q):.3f}ms" for q in (50, 90, 95, 99)))
    print("counts over the measured phase: " + " ".join(
        f"{key}={value:g}" for key, value in untraced.counts.values.items()))
    print(f"correctness: {checked} replies checked against the reference")
    if args.trace:
        traced = runs[1]
        layers = per_layer(traced, untraced)
        rows = _select(spec["per_layer"], layers)
        _print_table(f"per-layer ({len(_measured_requests(traced))} traced "
                     "requests; busy = thread CPU self time, wait = wall "
                     "self time minus busy, per request; bytes computed "
                     "from operand sizes):", rows)
        for op, split in sorted(op_split(traced).items()):
            print(f"  {op}: " + " ".join(
                f"{layer}={busy:.3f}/{wall:.3f}ms"
                for layer, (busy, wall) in sorted(split.items())))
        return rows
    return _select(spec["end_to_end"], e2e)


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test sizes; reported metrics use the defaults.
    parser.add_argument("--graph-index", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=float, default=WARMUP_SECONDS,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


async def run_workload(args, workload) -> List["loadgen.Run"]:
    import loadgen

    if not args.trace:
        return [await loadgen.measure(workload, args.seconds, False,
                                      args.setups, args.warmup)]
    half = max(args.seconds / 2.0, 1.0)
    untraced = await loadgen.measure(workload, half, False, 1, args.warmup)
    traced = await loadgen.measure(workload, half, True, 1, args.warmup)
    return [untraced, traced]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"servebench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed,
                               graph_index=args.graph_index)
    try:
        runs = asyncio.run(asyncio.wait_for(run_workload(args, workload),
                                            RUN_TIMEOUT))
    except (RuntimeError, OSError, asyncio.TimeoutError) as error:
        print(f"servebench: the run failed: {error!r}", file=sys.stderr)
        return 2
    correct = True
    checked = 0
    try:
        for run in runs:
            checked += gate.check(workload, run.samples)
    except gate.WrongAnswer as error:
        print(f"servebench: wrong answer: {error}", file=sys.stderr)
        correct = False
    metrics = report(args, workload, runs, checked) if correct else {}
    attempted = sum(len(run.measured) for run in runs)
    failed = sum(len(run.measured) - len(run.ok) for run in runs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
