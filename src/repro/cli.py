"""Command-line interface: label graphs, analyze convergence, run experiments.

The CLI mirrors how the paper's artifacts would be used from a shell:

``python -m repro label``
    Run BP / LinBP / LinBP* / SBP on a graph stored as an edge list plus a
    belief table (the relational ``A`` and ``E`` layouts of Section 5.3) and
    write the final beliefs and top labels.

``python -m repro analyze``
    Print the convergence report of Lemmas 8/9 for a graph and coupling
    matrix: spectral radii and the largest safe coupling scale.

``python -m repro experiment``
    Re-run one of the paper's experiments (Fig. 4, Fig. 6a, Fig. 7a–g,
    Fig. 10, Fig. 11, Appendix G) and print the resulting table.

``python -m repro serve``
    Run the propagation service: JSON requests (one per line, over stdin
    or TCP), plain-text responses.  Concurrent queries against one graph
    are micro-batched through the engine (see
    :mod:`repro.service.protocol` for the operations).

``python -m repro stats``
    Query a running ``repro serve`` instance for its request counters
    (``stats``) or its full telemetry registry (``--metrics``), over the
    versioned line protocol.

``python -m repro sql-info``
    Report which SQL execution backends (``label --backend``) are usable:
    the stdlib SQLite engine and the optional DuckDB engine.

``python -m repro backends``
    Report which array backends (``label --dtype/--precision``) are
    usable: the numpy host backend, the optional cupy device backend,
    and the in-place/compiled SpMM kernels, with their supported dtypes.

Every command works on plain text files and prints plain text, so results can
be piped into other tools.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro import __version__
from repro.core import belief_propagation, convergence, linbp, linbp_star, sbp
from repro.coupling.matrices import CouplingMatrix
from repro.exceptions import ReproError
from repro.graphs import io as graph_io

__all__ = ["main", "build_parser"]

METHODS: Dict[str, Callable] = {
    "bp": belief_propagation,
    "linbp": linbp,
    "linbp*": linbp_star,
    "sbp": sbp,
}


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (clear error on nonsense values)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (clear error on nonsense values)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a finite float >= 0 (clear error on nonsense values)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text}")
    return value


def _load_coupling(path: Path, epsilon: float) -> CouplingMatrix:
    """Load a coupling matrix from a JSON file.

    The file holds either ``{"residual": [[...]]}`` (an unscaled residual
    matrix Ĥo) or ``{"stochastic": [[...]]}`` (a doubly stochastic matrix as
    in Fig. 1); class names may be supplied under ``"classes"``.
    """
    data = json.loads(Path(path).read_text())
    class_names = data.get("classes")
    if "residual" in data:
        return CouplingMatrix.from_residual(np.asarray(data["residual"], dtype=float),
                                            epsilon=epsilon, class_names=class_names)
    if "stochastic" in data:
        return CouplingMatrix.from_stochastic(np.asarray(data["stochastic"], dtype=float),
                                              epsilon=epsilon, class_names=class_names)
    raise ReproError("coupling file must contain a 'residual' or 'stochastic' matrix")


def _label_backend(args: argparse.Namespace, graph, coupling, explicit):
    """Run one labeling query on a relational execution backend."""
    from repro.relational.engine import run_propagation

    if args.method == "bp":
        raise ReproError(
            "--backend runs the paper's relational programs; method 'bp' has "
            "no relational form (use linbp, linbp* or sbp)")
    return run_propagation(graph, coupling, explicit, method=args.method,
                           backend=args.backend, database=args.database,
                           max_iterations=args.max_iterations)


def _label_engine(args: argparse.Namespace, graph, coupling, explicit):
    """Run one labeling query on the batched engine in a requested dtype."""
    from repro import engine

    if args.method == "bp":
        raise ReproError(
            "--dtype/--precision drive the linearized engine; method 'bp' "
            "has no linearized form (use linbp, linbp* or sbp)")
    if args.method == "sbp":
        if args.precision == "auto":
            results, decision = engine.run_sbp_batch_auto(
                graph, coupling, [explicit], tolerance=args.tolerance)
            print(f"precision: {decision.reason}", file=sys.stderr)
            return results[0]
        return engine.run_sbp_batch(graph, coupling, [explicit],
                                    dtype=args.dtype)[0]
    echo = args.method == "linbp"
    if args.precision == "auto":
        results, decision = engine.run_batch_auto(
            graph, coupling, [explicit], echo_cancellation=echo,
            max_iterations=args.max_iterations, tolerance=args.tolerance)
        print(f"precision: {decision.reason}", file=sys.stderr)
        return results[0]
    plan = engine.get_plan(graph, coupling, echo_cancellation=echo,
                           dtype=args.dtype)
    return engine.run_batch(plan, [explicit],
                            max_iterations=args.max_iterations,
                            tolerance=args.tolerance)[0]


def _command_label(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph, num_nodes=args.num_nodes)
    coupling = _load_coupling(args.coupling, args.epsilon)
    explicit = graph_io.read_belief_table(args.beliefs, num_nodes=graph.num_nodes,
                                          num_classes=coupling.num_classes)
    mixed = args.dtype != "float64" or args.precision != "strict"
    if args.backend is not None:
        if mixed:
            raise ReproError(
                "--backend runs on a SQL engine with its own numeric types; "
                "--dtype/--precision apply to the in-memory engine only")
        result = _label_backend(args, graph, coupling, explicit)
    elif mixed:
        result = _label_engine(args, graph, coupling, explicit)
    else:
        method = METHODS[args.method]
        if args.method in ("linbp", "linbp*"):
            result = method(graph, coupling, explicit,
                            max_iterations=args.max_iterations,
                            tolerance=args.tolerance)
        elif args.method == "bp":
            result = method(graph, coupling, explicit,
                            max_iterations=args.max_iterations)
        else:
            result = method(graph, coupling, explicit)
    print(result.summary())
    labels = result.hard_labels()
    if args.output:
        graph_io.write_belief_table(result.beliefs, args.output,
                                    skip_zero_rows=False)
        print(f"final beliefs written to {args.output}")
    shown = 0
    for node in range(graph.num_nodes):
        if labels[node] < 0:
            continue
        print(f"{node}\t{coupling.name_of(int(labels[node]))}")
        shown += 1
        if args.limit and shown >= args.limit:
            print(f"... ({graph.num_nodes - shown} more nodes)")
            break
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph, num_nodes=args.num_nodes)
    coupling = _load_coupling(args.coupling, 1.0)
    report = convergence.analyze(graph, coupling,
                                 include_mooij_kappen=args.mooij_kappen)
    print(f"nodes:                          {graph.num_nodes}")
    print(f"edges (undirected):             {graph.num_edges}")
    print(f"rho(A):                         {report.spectral_radius_adjacency:.6f}")
    print(f"rho(Ho):                        {report.spectral_radius_coupling_unscaled:.6f}")
    print(f"exact epsilon threshold LinBP:  {report.exact_threshold_linbp:.6f}")
    print(f"exact epsilon threshold LinBP*: {report.exact_threshold_linbp_star:.6f}")
    print(f"norm-bound threshold LinBP:     {report.sufficient_threshold_linbp:.6f}")
    print(f"norm-bound threshold LinBP*:    {report.sufficient_threshold_linbp_star:.6f}")
    if report.mooij_kappen_threshold_bp is not None:
        print(f"Mooij-Kappen c(H)*rho(A_edge):  {report.mooij_kappen_threshold_bp:.6f}")
    return 0


EXPERIMENTS: Dict[str, str] = {
    "fig4": "run_torus_sweep",
    "fig6a": "run_dataset_table",
    "fig7a": "run_memory_scalability",
    "fig7b": "run_relational_scalability",
    "fig7c": "run_timing_table",
    "fig7d": "run_per_iteration_timing",
    "fig7e": "run_incremental_beliefs",
    "fig7fg": "run_quality_sweep",
    "fig10a": "run_explicit_fraction_sweep",
    "fig10b": "run_incremental_edges",
    "fig11": "run_dblp_quality",
    "appendix-g": "run_bound_comparison",
}


def _command_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    function = getattr(experiments, EXPERIMENTS[args.name])
    table = function()
    print(table.to_text())
    if args.output:
        Path(args.output).write_text(table.to_text() + "\n")
        print(f"\ntable written to {args.output}")
    return 0


def _command_sql_info(args: argparse.Namespace) -> int:
    from repro.relational.backends import backend_info

    print(f"{'backend':<10} {'status':<13} engine")
    for entry in backend_info():
        status = "available" if entry["available"] else "unavailable"
        print(f"{entry['name']:<10} {status:<13} {entry['engine']}")
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    from repro.engine import array_backend_info

    print(f"{'backend':<14} {'status':<13} {'dtypes':<18} engine")
    for entry in array_backend_info():
        status = "available" if entry["available"] else "unavailable"
        dtypes = ",".join(entry["dtypes"])
        print(f"{entry['name']:<14} {status:<13} {dtypes:<18} "
              f"{entry['engine']}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceSession

    if args.config is not None:
        # A tuned artifact fixes the whole service configuration; the
        # per-knob flags would silently fight it, so refuse the mix.
        flag_defaults = {"window_ms": 2.0, "max_batch": 16,
                         "result_cache_size": 256, "result_ttl": 300.0,
                         "snapshot_history": 4}
        overridden = [f"--{name.replace('_', '-')}"
                      for name, default in flag_defaults.items()
                      if getattr(args, name) != default]
        if overridden:
            print(f"error: --config replaces {', '.join(overridden)}; "
                  "pass either the artifact or the individual flags",
                  file=sys.stderr)
            return 2
        from repro.service import PropagationService

        with open(args.config, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        service = PropagationService.from_config(artifact)
        session = ServiceSession(service)
        print(f"repro serve: configuration from {args.config}",
              file=sys.stderr)
    else:
        session = ServiceSession(
            window_seconds=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            result_cache_size=args.result_cache_size,
            result_ttl_seconds=args.result_ttl if args.result_ttl > 0
            else None,
            snapshot_history=args.snapshot_history,
        )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs import iter_registries, start_metrics_server

        metrics_server = start_metrics_server(
            args.metrics_port, host=args.host,
            registries=list(iter_registries(session.service.registry)))
        print(f"repro serve: metrics on "
              f"http://{args.host}:{metrics_server.port}/metrics",
              file=sys.stderr)
    try:
        return _run_serve_frontend(args, session)
    finally:
        if metrics_server is not None:
            metrics_server.stop()


def _run_serve_frontend(args: argparse.Namespace,
                        session: "ServiceSession") -> int:
    """Run the selected serve front end (async TCP, stdin, threaded TCP)."""
    from repro.service import LineProtocolServer, serve_stream

    if getattr(args, "use_async", False):
        import asyncio

        from repro.service import serve_async

        if args.port is None:
            print("error: --async needs --port (stdin mode is synchronous)",
                  file=sys.stderr)
            return 2

        def ready(address):
            print(f"repro serve: async, listening on "
                  f"{address[0]}:{address[1]}", file=sys.stderr)

        try:
            asyncio.run(serve_async(
                session, host=args.host, port=args.port,
                max_pending=args.max_pending,
                max_inflight=args.max_inflight,
                workers=args.async_workers, ready=ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        return 0
    if args.port is None:
        print("repro serve: reading JSON requests from stdin "
              "(one per line; {\"op\": \"shutdown\"} to stop)",
              file=sys.stderr)
        serve_stream(session, sys.stdin, sys.stdout)
        return 0
    server = LineProtocolServer((args.host, args.port), session)
    host, port = server.server_address[:2]
    print(f"repro serve: listening on {host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0


def _tune_workload(args: argparse.Namespace):
    """Build the seeded workload ``repro tune`` / ``repro ablate`` measure.

    Either a real graph (``--graph``, with ``--coupling``) or — the
    benchmark default — a seeded synthetic graph in the streaming
    benchmark's shape.  ``REPRO_BENCH_SMOKE=1`` shrinks the synthetic
    default the same way it shrinks the committed benchmarks.
    """
    import os

    from repro.coupling.presets import synthetic_residual_matrix
    from repro.tune import make_engine_workload, make_mixed_workload

    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    if args.graph is not None:
        graph = graph_io.read_edge_list(args.graph, num_nodes=args.num_nodes)
        graph_name = args.graph.stem
    else:
        from repro.graphs.generators import random_graph

        nodes = args.nodes if args.nodes is not None else \
            (160 if smoke else 400)
        graph = random_graph(nodes, args.edge_probability, seed=args.seed)
        graph_name = f"random-{nodes}"
    if args.coupling is not None:
        coupling = _load_coupling(args.coupling, args.epsilon)
    else:
        coupling = synthetic_residual_matrix(epsilon=args.epsilon)
    requests_per_client = args.requests_per_client if \
        args.requests_per_client is not None else (4 if smoke else 8)
    if args.workload == "engine":
        return make_engine_workload(
            graph, coupling, seed=args.seed,
            max_iterations=args.max_iterations, graph_name=graph_name)
    return make_mixed_workload(
        graph, coupling, seed=args.seed, num_clients=args.clients,
        requests_per_client=requests_per_client,
        max_iterations=args.max_iterations, graph_name=graph_name)


def _tune_progress(record) -> None:
    detail = ""
    if record.metrics is not None:
        detail = (f" p99 {record.metrics.p99_seconds * 1000.0:.2f}ms, "
                  f"{record.metrics.throughput_rps:.1f} req/s")
    elif record.error:
        detail = f" {record.error.splitlines()[-1]}"
    print(f"  {record.run_id} {record.status}{detail}", file=sys.stderr)


def _tune_runner(args: argparse.Namespace):
    from repro.tune import AblationRunner

    workload = _tune_workload(args)
    print(f"workload: {workload.description}", file=sys.stderr)
    return AblationRunner(workload,
                          run_timeout_seconds=args.run_timeout,
                          progress=_tune_progress)


def _command_ablate(args: argparse.Namespace) -> int:
    from repro.tune import build_report

    runner = _tune_runner(args)
    baseline, runs = runner.run_ablation()
    report = build_report(baseline, runs,
                          workload=runner.workload.description)
    if args.json is not None:
        args.json.write_text(json.dumps(report.as_dict(), indent=2,
                                        sort_keys=True) + "\n")
        print(f"ablation report written to {args.json}", file=sys.stderr)
    sys.stdout.write(report.render())
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    from repro.tune import select_config

    runner = _tune_runner(args)
    selection = select_config(runner, rounds=args.rounds,
                              margin=args.margin)
    artifact = selection.artifact(graph_name=runner.workload.graph_name,
                                  workload=runner.workload.description)
    args.output.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                           + "\n")
    base, best = selection.baseline.metrics, selection.selected.metrics
    print(f"baseline {selection.baseline.run_id}: "
          f"p99 {base.p99_seconds * 1000.0:.2f}ms, "
          f"{base.throughput_rps:.1f} req/s")
    print(f"selected {selection.run_id}: "
          f"p99 {best.p99_seconds * 1000.0:.2f}ms, "
          f"{best.throughput_rps:.1f} req/s"
          + ("" if selection.improved else " (default config kept)"))
    changed = {key: value for key, value in selection.config.items()
               if runner.space.default_config()[key] != value}
    if changed:
        print("changes vs default: " + ", ".join(
            f"{key}={value}" for key, value in sorted(changed.items())))
    print(f"serving config written to {args.output} "
          f"(use: repro serve --config {args.output})")
    return 0


def _print_stats_tree(data: dict, indent: int = 0) -> None:
    for key, value in data.items():
        if isinstance(value, dict):
            print("  " * indent + f"{key}:")
            _print_stats_tree(value, indent + 1)
        else:
            print("  " * indent + f"{key}: {value}")


def _command_stats(args: argparse.Namespace) -> int:
    import socket

    request = {"op": "metrics" if args.metrics else "stats", "v": 1}
    if args.metrics and args.prometheus:
        request["format"] = "prometheus"
    try:
        with socket.create_connection((args.host, args.port),
                                      timeout=args.timeout) as sock:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
    except OSError as error:
        print(f"error: cannot reach {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    if not line.strip():
        print("error: server closed the connection without replying",
              file=sys.stderr)
        return 2
    try:
        reply = json.loads(line)
    except json.JSONDecodeError:
        print(f"error: unparseable reply: {line.strip()}", file=sys.stderr)
        return 2
    if not reply.get("ok"):
        error = reply.get("error", {})
        print(f"error: {error.get('code', 'unknown')}: "
              f"{error.get('message', line.strip())}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
    elif args.metrics and args.prometheus:
        sys.stdout.write(reply["prometheus"])
    elif args.metrics:
        _print_stats_tree(reply["metrics"])
    else:
        _print_stats_tree(reply["stats"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Linearized and Single-Pass Belief Propagation (VLDB 2015) "
                    "— reproduction CLI")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    label = subparsers.add_parser(
        "label", help="run BP/LinBP/LinBP*/SBP on an edge list + belief table")
    label.add_argument("--graph", required=True, type=Path,
                       help="edge list file: 'source target [weight]' per line")
    label.add_argument("--beliefs", required=True, type=Path,
                       help="explicit beliefs file: 'node class belief' per line")
    label.add_argument("--coupling", required=True, type=Path,
                       help="JSON file with a 'residual' or 'stochastic' matrix")
    label.add_argument("--method", choices=sorted(METHODS), default="linbp")
    label.add_argument("--epsilon", type=float, default=1.0,
                       help="coupling scale epsilon_H (default: 1.0)")
    label.add_argument("--num-nodes", type=int, default=None,
                       help="total number of nodes (default: inferred)")
    label.add_argument("--max-iterations", type=int, default=100)
    label.add_argument("--tolerance", type=float, default=1e-10,
                       help="convergence threshold on the max belief change "
                            "(default: 1e-10; method bp keeps its own 1e-8)")
    label.add_argument("--dtype", choices=["float32", "float64"],
                       default="float64",
                       help="arithmetic precision of the in-memory engine "
                            "(default: float64)")
    label.add_argument("--precision", choices=["strict", "auto"],
                       default="strict",
                       help="'strict' runs exactly --dtype; 'auto' runs the "
                            "Lemma-8-certified float32 fast path when its "
                            "rounding budget fits --tolerance and falls "
                            "back to float64 otherwise")
    label.add_argument("--output", type=Path, default=None,
                       help="write the final belief table to this path")
    label.add_argument("--limit", type=int, default=20,
                       help="print at most this many node labels (0 = all)")
    label.add_argument("--backend", choices=["sqlite", "duckdb"],
                       default=None,
                       help="run the relational program on a SQL engine "
                            "instead of the in-memory engine "
                            "(linbp/linbp*/sbp only; default: in-memory)")
    label.add_argument("--database", default=":memory:",
                       help="database for --backend sqlite/duckdb; a file "
                            "path persists the graph and beliefs "
                            "(default: ':memory:')")
    label.set_defaults(handler=_command_label)

    analyze = subparsers.add_parser(
        "analyze", help="print the convergence report (Lemmas 8 and 9)")
    analyze.add_argument("--graph", required=True, type=Path)
    analyze.add_argument("--coupling", required=True, type=Path)
    analyze.add_argument("--num-nodes", type=int, default=None)
    analyze.add_argument("--mooij-kappen", action="store_true",
                         help="also compute the Mooij-Kappen BP bound (slow)")
    analyze.set_defaults(handler=_command_analyze)

    experiment = subparsers.add_parser(
        "experiment", help="re-run one of the paper's experiments")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="which table/figure to regenerate")
    experiment.add_argument("--output", type=Path, default=None)
    experiment.set_defaults(handler=_command_experiment)

    sql_info = subparsers.add_parser(
        "sql-info", help="report which SQL execution backends are usable")
    sql_info.set_defaults(handler=_command_sql_info)

    backends = subparsers.add_parser(
        "backends", help="report which array backends and mixed-precision "
                         "kernels are usable")
    backends.set_defaults(handler=_command_backends)

    serve = subparsers.add_parser(
        "serve", help="run the propagation service (JSON line protocol)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port to listen on (0 = pick a free port; "
                            "default: serve stdin/stdout)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port (default: 127.0.0.1)")
    serve.add_argument("--window-ms", type=_non_negative_float, default=2.0,
                       help="micro-batching collection window in ms "
                            "(0 disables coalescing; default: 2)")
    serve.add_argument("--max-batch", type=_positive_int, default=16,
                       help="dispatch a batch early at this size (default: 16)")
    serve.add_argument("--result-ttl", type=_non_negative_float, default=300.0,
                       help="result cache TTL in seconds (0 = no expiry; "
                            "default: 300)")
    serve.add_argument("--result-cache-size", type=_non_negative_int,
                       default=256,
                       help="result cache LRU capacity (0 disables result "
                            "caching; default: 256)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="serve with the asyncio front end (admission "
                            "control + per-connection backpressure); "
                            "requires --port")
    serve.add_argument("--max-pending", type=_non_negative_int, default=64,
                       help="async: reject requests above this in-flight "
                            "count with an 'overloaded' error (default: 64)")
    serve.add_argument("--max-inflight", type=_positive_int, default=8,
                       help="async: per-connection cap on unanswered "
                            "requests before reads pause (default: 8)")
    serve.add_argument("--async-workers", type=_positive_int, default=16,
                       help="async: worker threads executing requests "
                            "(default: 16)")
    serve.add_argument("--snapshot-history", type=_non_negative_int,
                       default=4,
                       help="stale snapshot versions kept per graph for "
                            "bounded-staleness queries (default: 4)")
    serve.add_argument("--metrics-port", type=_non_negative_int, default=None,
                       help="also serve Prometheus text metrics over HTTP on "
                            "this port (0 = pick a free port; default: off)")
    serve.add_argument("--config", type=Path, default=None,
                       help="serving-config artifact (from 'repro tune') "
                            "fixing the service and default query settings; "
                            "replaces the per-knob flags")
    serve.set_defaults(handler=_command_serve)

    def add_tune_workload_options(command):
        command.add_argument("--graph", type=Path, default=None,
                             help="edge list file to tune against (default: "
                                  "a seeded synthetic benchmark graph)")
        command.add_argument("--num-nodes", type=int, default=None,
                             help="with --graph: total number of nodes "
                                  "(default: inferred)")
        command.add_argument("--coupling", type=Path, default=None,
                             help="coupling JSON (default: the synthetic "
                                  "3-class residual matrix)")
        command.add_argument("--epsilon", type=float, default=0.005,
                             help="coupling scale epsilon_H (default: 0.005)")
        command.add_argument("--nodes", type=_positive_int, default=None,
                             help="synthetic graph size (default: 400, or "
                                  "160 under REPRO_BENCH_SMOKE=1)")
        command.add_argument("--edge-probability", type=_non_negative_float,
                             default=0.08,
                             help="synthetic graph edge probability "
                                  "(default: 0.08)")
        command.add_argument("--seed", type=_non_negative_int, default=0,
                             help="workload seed; fixing it makes run IDs, "
                                  "rankings and the selected config "
                                  "reproducible (default: 0)")
        command.add_argument("--workload", choices=["mixed", "engine"],
                             default="mixed",
                             help="'mixed' drives a closed-loop update/query "
                                  "service; 'engine' times pure run_batch "
                                  "calls (numeric knobs only; default: "
                                  "mixed)")
        command.add_argument("--clients", type=_positive_int, default=8,
                             help="closed-loop clients of the mixed "
                                  "workload (default: 8)")
        command.add_argument("--requests-per-client", type=_positive_int,
                             default=None,
                             help="requests each client issues (default: 8, "
                                  "or 4 under REPRO_BENCH_SMOKE=1)")
        command.add_argument("--max-iterations", type=_positive_int,
                             default=50,
                             help="solver iteration budget per query "
                                  "(default: 50)")
        command.add_argument("--run-timeout", type=_non_negative_float,
                             default=120.0,
                             help="wall-clock budget per measured config in "
                                  "seconds; a config exceeding it is "
                                  "recorded as timed out (default: 120)")

    ablate = subparsers.add_parser(
        "ablate", help="one-factor ablation over the serving knob space: "
                       "rank each knob's importance on a workload")
    add_tune_workload_options(ablate)
    ablate.add_argument("--json", type=Path, default=None,
                        help="also write the report as JSON to this path")
    ablate.set_defaults(handler=_command_ablate)

    tune = subparsers.add_parser(
        "tune", help="coordinate-descent autotune: select a serving config "
                     "measured no worse than the default")
    add_tune_workload_options(tune)
    tune.add_argument("--rounds", type=_positive_int, default=2,
                      help="coordinate-descent passes over the knob space "
                           "(default: 2)")
    tune.add_argument("--margin", type=_non_negative_float, default=0.02,
                      help="minimum relative improvement to accept a move "
                           "(default: 0.02)")
    tune.add_argument("--output", type=Path, default=Path("tuned.json"),
                      help="where to write the serving-config artifact "
                           "(default: tuned.json)")
    tune.set_defaults(handler=_command_tune)

    stats = subparsers.add_parser(
        "stats", help="query a running 'repro serve' for counters or metrics")
    stats.add_argument("--port", type=_positive_int, required=True,
                       help="TCP port of the running server")
    stats.add_argument("--host", default="127.0.0.1",
                       help="server address (default: 127.0.0.1)")
    stats.add_argument("--metrics", action="store_true",
                       help="fetch the full telemetry registry instead of "
                            "the request counters")
    stats.add_argument("--prometheus", action="store_true",
                       help="with --metrics: print Prometheus text "
                            "exposition instead of the key tree")
    stats.add_argument("--json", action="store_true",
                       help="print the raw v1 JSON reply")
    stats.add_argument("--timeout", type=_non_negative_float, default=5.0,
                       help="connection timeout in seconds (default: 5)")
    stats.set_defaults(handler=_command_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
