"""Tests for the command-line interface (label / analyze / experiment)."""

from __future__ import annotations

import json
import re

import pytest

from repro import BeliefMatrix
from repro.cli import build_parser, main
from repro.graphs import Graph, write_belief_table, write_edge_list


@pytest.fixture
def cli_files(tmp_path):
    """A small chain graph, explicit beliefs and a coupling file on disk."""
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    explicit = BeliefMatrix.from_labels({0: 0, 5: 1}, num_nodes=6, num_classes=2,
                                        magnitude=0.1)
    graph_path = tmp_path / "graph.tsv"
    beliefs_path = tmp_path / "beliefs.tsv"
    coupling_path = tmp_path / "coupling.json"
    write_edge_list(graph, graph_path)
    write_belief_table(explicit.residuals, beliefs_path)
    coupling_path.write_text(json.dumps({
        "stochastic": [[0.8, 0.2], [0.2, 0.8]],
        "classes": ["left", "right"],
    }))
    return graph_path, beliefs_path, coupling_path, tmp_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_label_defaults(self, cli_files):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        args = build_parser().parse_args([
            "label", "--graph", str(graph_path), "--beliefs", str(beliefs_path),
            "--coupling", str(coupling_path)])
        assert args.method == "linbp"
        assert args.epsilon == 1.0


class TestLabelCommand:
    @pytest.mark.parametrize("method", ["linbp", "linbp*", "sbp", "bp"])
    def test_methods_run_and_print_labels(self, cli_files, capsys, method):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs", str(beliefs_path),
            "--coupling", str(coupling_path), "--method", method,
            "--epsilon", "0.3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "left" in captured.out and "right" in captured.out

    def test_output_file_written(self, cli_files):
        graph_path, beliefs_path, coupling_path, tmp_path = cli_files
        output = tmp_path / "final.tsv"
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs", str(beliefs_path),
            "--coupling", str(coupling_path), "--epsilon", "0.3",
            "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        lines = [line for line in output.read_text().splitlines() if line.strip()]
        assert len(lines) == 6 * 2  # every node, every class

    def test_limit_truncates_output(self, cli_files, capsys):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        main(["label", "--graph", str(graph_path), "--beliefs", str(beliefs_path),
              "--coupling", str(coupling_path), "--epsilon", "0.3", "--limit", "2"])
        captured = capsys.readouterr()
        assert "more nodes" in captured.out

    def test_missing_file_reports_error(self, cli_files, capsys):
        _, beliefs_path, coupling_path, tmp_path = cli_files
        exit_code = main([
            "label", "--graph", str(tmp_path / "nope.tsv"),
            "--beliefs", str(beliefs_path), "--coupling", str(coupling_path)])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_tolerance_reaches_plain_runs(self, cli_files, capsys):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        base = ["label", "--graph", str(graph_path), "--beliefs",
                str(beliefs_path), "--coupling", str(coupling_path),
                "--epsilon", "0.3"]

        def iterations(flags):
            assert main(base + flags) == 0
            summary = capsys.readouterr().out.splitlines()[0]
            return int(re.search(r"(\d+) iterations", summary).group(1))

        assert iterations(["--tolerance", "1e-4"]) < iterations([])

    def test_bad_coupling_file_reports_error(self, cli_files, capsys):
        graph_path, beliefs_path, _, tmp_path = cli_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": []}))
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs", str(beliefs_path),
            "--coupling", str(bad)])
        assert exit_code == 2


class TestAnalyzeCommand:
    def test_prints_thresholds(self, cli_files, capsys):
        graph_path, _, coupling_path, _ = cli_files
        exit_code = main(["analyze", "--graph", str(graph_path),
                          "--coupling", str(coupling_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "rho(A):" in captured.out
        assert "exact epsilon threshold LinBP:" in captured.out

    def test_mooij_kappen_option(self, cli_files, capsys):
        graph_path, _, coupling_path, _ = cli_files
        exit_code = main(["analyze", "--graph", str(graph_path),
                          "--coupling", str(coupling_path), "--mooij-kappen"])
        assert exit_code == 0
        assert "Mooij-Kappen" in capsys.readouterr().out


class TestLabelBackendCommand:
    @pytest.mark.parametrize("method", ["linbp", "linbp*", "sbp"])
    def test_backend_label_matches_in_memory(self, cli_files, capsys,
                                             method):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        memory_exit = main([
            "label", "--graph", str(graph_path), "--beliefs",
            str(beliefs_path), "--coupling", str(coupling_path),
            "--method", method, "--epsilon", "0.3"])
        memory_out = capsys.readouterr().out
        backend_exit = main([
            "label", "--graph", str(graph_path), "--beliefs",
            str(beliefs_path), "--coupling", str(coupling_path),
            "--method", method, "--epsilon", "0.3",
            "--backend", "sqlite"])
        backend_out = capsys.readouterr().out
        assert memory_exit == 0 and backend_exit == 0
        # identical label assignments (the summary line names the backend)
        assert backend_out.splitlines()[1:] == memory_out.splitlines()[1:]

    def test_backend_persists_to_database_file(self, cli_files, capsys):
        graph_path, beliefs_path, coupling_path, tmp_path = cli_files
        database = tmp_path / "graph.db"
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs",
            str(beliefs_path), "--coupling", str(coupling_path),
            "--epsilon", "0.3", "--backend", "sqlite",
            "--database", str(database)])
        assert exit_code == 0
        assert database.exists()
        assert "left" in capsys.readouterr().out

    def test_backend_rejects_bp_method(self, cli_files, capsys):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs",
            str(beliefs_path), "--coupling", str(coupling_path),
            "--method", "bp", "--backend", "sqlite"])
        assert exit_code == 2
        assert "no relational form" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["postgres", "python"])
    def test_backend_flag_rejects_unknown_backend(self, capsys, backend):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([
                "label", "--graph", "g", "--beliefs", "b",
                "--coupling", "h", "--backend", backend])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_duckdb_reports_clean_error(self, cli_files, capsys):
        import importlib.util
        if importlib.util.find_spec("duckdb") is not None:
            pytest.skip("duckdb installed; the gating path cannot be hit")
        graph_path, beliefs_path, coupling_path, _ = cli_files
        exit_code = main([
            "label", "--graph", str(graph_path), "--beliefs",
            str(beliefs_path), "--coupling", str(coupling_path),
            "--epsilon", "0.3", "--backend", "duckdb"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")  # not a traceback
        assert "duckdb" in err


class TestSqlInfoCommand:
    def test_reports_every_backend(self, capsys):
        exit_code = main(["sql-info"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in ("sqlite", "duckdb"):
            assert name in out
        assert "SQLite" in out
        # duckdb is either installed or reported unavailable - never an error
        assert "available" in out


class TestBackendsCommand:
    def test_reports_every_array_backend(self, capsys):
        exit_code = main(["backends"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in ("numpy", "cupy", "spmm-inplace", "spmm-numba"):
            assert name in out
        assert "float32" in out and "float64" in out
        # numpy is always usable; optional backends report, never error.
        assert "available" in out


class TestLabelPrecision:
    def _flags(self, cli_files):
        graph_path, beliefs_path, coupling_path, _ = cli_files
        return ["label", "--graph", str(graph_path),
                "--beliefs", str(beliefs_path),
                "--coupling", str(coupling_path), "--epsilon", "0.3"]

    @pytest.mark.parametrize("method", ["linbp", "linbp*", "sbp"])
    def test_float32_labels_match_float64(self, cli_files, capsys, method):
        base = self._flags(cli_files) + ["--method", method]
        assert main(base) == 0
        exact = capsys.readouterr().out
        assert main(base + ["--dtype", "float32"]) == 0
        narrow = capsys.readouterr().out
        # Same hard labels either way on this tiny chain.
        assert exact.splitlines()[1:] == narrow.splitlines()[1:]

    def test_auto_precision_prints_the_decision(self, cli_files, capsys):
        flags = self._flags(cli_files)
        assert main(flags + ["--precision", "auto",
                             "--tolerance", "1e-3"]) == 0
        captured = capsys.readouterr()
        assert "precision:" in captured.err
        assert "left" in captured.out and "right" in captured.out

    def test_dtype_rejected_for_bp(self, cli_files, capsys):
        flags = self._flags(cli_files)
        assert main(flags + ["--method", "bp", "--dtype", "float32"]) == 2
        assert "no linearized form" in capsys.readouterr().err

    def test_dtype_rejected_with_sql_backend(self, cli_files, capsys):
        flags = self._flags(cli_files)
        assert main(flags + ["--backend", "sqlite",
                             "--dtype", "float32"]) == 2
        assert "in-memory engine only" in capsys.readouterr().err

    def test_unknown_dtype_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["label", "--graph", "g", "--beliefs",
                                       "b", "--coupling", "c",
                                       "--dtype", "float16"])


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port is None
        assert args.window_ms == 2.0
        assert args.max_batch == 16
        assert args.result_ttl == 300.0
        assert args.result_cache_size == 256
        assert args.metrics_port is None

    @pytest.mark.parametrize("flags", [
        ["--window-ms", "-1"],
        ["--window-ms", "nan"],
        ["--window-ms", "soon"],
        ["--max-batch", "0"],
        ["--max-batch", "-3"],
        ["--max-batch", "many"],
        ["--result-ttl", "-5"],
        ["--result-cache-size", "-1"],
        ["--result-cache-size", "lots"],
    ])
    def test_serve_rejects_nonsense_knobs(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err  # the argparse type error message

    def test_serve_accepts_zero_cache_size_and_window(self):
        # 0 is meaningful for these knobs (disable caching / coalescing)
        args = build_parser().parse_args(
            ["serve", "--result-cache-size", "0", "--window-ms", "0",
             "--result-ttl", "0"])
        assert args.result_cache_size == 0
        assert args.window_ms == 0.0
        assert args.result_ttl == 0.0

    def test_serve_stdin_mode_processes_requests(self, capsys, monkeypatch):
        import io
        import sys

        requests = "\n".join([
            json.dumps({"op": "load_graph", "name": "g",
                        "edges": [[0, 1], [1, 2]]}),
            json.dumps({"op": "load_coupling", "name": "h",
                        "stochastic": [[0.9, 0.1], [0.1, 0.9]],
                        "epsilon": 0.2}),
            json.dumps({"op": "query", "graph": "g", "coupling": "h",
                        "beliefs": [[0, 0, 0.1]]}),
            json.dumps({"op": "shutdown"}),
        ])
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        exit_code = main(["serve", "--window-ms", "0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("ok graph name=g")
        assert lines[2].startswith("ok query method=LinBP")
        assert lines[-1] == "ok bye"
        assert "reading JSON requests" in captured.err

    def test_serve_metrics_port_starts_and_stops_endpoint(self, capsys,
                                                          monkeypatch):
        import io
        import sys

        requests = json.dumps({"op": "shutdown"})
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        exit_code = main(["serve", "--window-ms", "0", "--metrics-port", "0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "metrics on http://127.0.0.1:" in captured.err


class TestStatsCommand:
    @pytest.fixture
    def server(self):
        import threading

        from repro.service import ServiceSession
        from repro.service.server import LineProtocolServer

        server = LineProtocolServer(("127.0.0.1", 0),
                                    ServiceSession(window_seconds=0.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _load_and_query(self, server):
        import socket

        with socket.create_connection(server.server_address[:2],
                                      timeout=10) as connection:
            stream = connection.makefile("rw", encoding="utf-8")
            for request in (
                    {"op": "load_graph", "name": "g", "edges": [[0, 1], [1, 2]]},
                    {"op": "load_coupling", "name": "h",
                     "stochastic": [[0.9, 0.1], [0.1, 0.9]], "epsilon": 0.2},
                    {"op": "query", "graph": "g", "coupling": "h",
                     "beliefs": [[0, 0, 0.1]]}):
                stream.write(json.dumps(request) + "\n")
                stream.flush()
                assert stream.readline().startswith("ok")

    def test_stats_requires_port(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["stats"])
        assert excinfo.value.code == 2

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats", "--port", "7171"])
        assert args.host == "127.0.0.1"
        assert args.timeout == 5.0
        assert not args.metrics
        assert not args.prometheus
        assert not args.json

    def test_stats_tree_from_live_server(self, server, capsys):
        self._load_and_query(server)
        port = str(server.server_address[1])
        exit_code = main(["stats", "--port", port])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "queries: 1" in out

    def test_metrics_prometheus_from_live_server(self, server, capsys):
        self._load_and_query(server)
        port = str(server.server_address[1])
        exit_code = main(["stats", "--port", port, "--metrics",
                          "--prometheus"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "# TYPE repro_service_queries_total counter" in out
        assert 'repro_service_queries_total{graph="g"} 1' in out

    def test_stats_json_is_the_raw_reply(self, server, capsys):
        port = str(server.server_address[1])
        exit_code = main(["stats", "--port", port, "--json"])
        out = capsys.readouterr().out
        assert exit_code == 0
        reply = json.loads(out)
        assert reply["ok"] is True
        assert "stats" in reply

    def test_unreachable_server_reports_error(self, capsys):
        import socket

        # Grab a free port, close it, and point the CLI at the dead port.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        exit_code = main(["stats", "--port", str(dead_port),
                          "--timeout", "0.5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot reach" in captured.err


class TestExperimentCommand:
    def test_fig6a_experiment_runs(self, capsys, tmp_path):
        output = tmp_path / "fig6a.txt"
        exit_code = main(["experiment", "fig6a", "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Fig. 6a" in captured.out
        assert output.exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "does-not-exist"])


def _fresh_artifact(tmp_path, **service_overrides):
    service = {
        "window_ms": 0.0, "max_batch": 16, "result_cache_size": 256,
        "result_ttl_seconds": 300.0, "snapshot_history": 4,
    }
    service.update(service_overrides)
    path = tmp_path / "tuned.json"
    path.write_text(json.dumps({
        "version": 1, "kind": "repro-serving-config", "service": service,
        "query": {"dtype": "float64", "precision": "strict",
                  "tolerance": 1e-8},
    }))
    return path


class TestServeConfig:
    def test_serve_config_loads_artifact(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        artifact = _fresh_artifact(tmp_path)
        requests = "\n".join([
            json.dumps({"op": "load_graph", "name": "g",
                        "edges": [[0, 1], [1, 2]]}),
            json.dumps({"op": "load_coupling", "name": "h",
                        "stochastic": [[0.9, 0.1], [0.1, 0.9]],
                        "epsilon": 0.2}),
            json.dumps({"op": "query", "graph": "g", "coupling": "h",
                        "beliefs": [[0, 0, 0.1]]}),
            json.dumps({"op": "shutdown"}),
        ])
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        exit_code = main(["serve", "--config", str(artifact)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"configuration from {artifact}" in captured.err
        assert "ok query method=LinBP" in captured.out

    def test_serve_config_refuses_knob_flag_mix(self, capsys, tmp_path):
        artifact = _fresh_artifact(tmp_path)
        exit_code = main(["serve", "--config", str(artifact),
                          "--max-batch", "4"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--config replaces --max-batch" in captured.err

    def test_serve_config_rejects_bad_artifact(self, capsys, tmp_path):
        path = tmp_path / "tuned.json"
        path.write_text(json.dumps({
            "version": 1, "service": {"batch_window": 2.0}}))
        exit_code = main(["serve", "--config", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "batch_window" in captured.err
        assert "window_ms" in captured.err


class TestTuneCommands:
    """``repro tune`` / ``repro ablate`` end to end, at tiny sizes."""

    ARGS = ["--nodes", "60", "--clients", "2", "--requests-per-client", "3",
            "--max-iterations", "10", "--seed", "0"]

    def test_ablate_renders_ranked_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        exit_code = main(["ablate", *self.ARGS, "--json", str(report_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Ablation report" in captured.out
        assert "baseline run-" in captured.out
        document = json.loads(report_path.read_text())
        assert document["version"] == 1
        assert document["kind"] == "repro-ablation-report"
        assert document["baseline"]["status"] == "ok"
        names = [entry["name"] for entry in document["parameters"]]
        assert "window_ms" in names and "tolerance" in names

    def test_tune_emits_consumable_artifact(self, capsys, tmp_path):
        from repro.service import PropagationService

        output = tmp_path / "tuned.json"
        exit_code = main(["tune", *self.ARGS, "--rounds", "1",
                          "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "selected run-" in captured.out
        assert f"repro serve --config {output}" in captured.out
        artifact = json.loads(output.read_text())
        assert artifact["kind"] == "repro-serving-config"
        # The headline guarantee: the emitted artifact must feed straight
        # back into the serving layer.
        service = PropagationService.from_config(artifact)
        assert service.default_spec is not None

    def test_tune_engine_workload(self, capsys, tmp_path):
        output = tmp_path / "tuned.json"
        exit_code = main(["tune", *self.ARGS, "--workload", "engine",
                          "--rounds", "1", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.rounds == 2
        assert args.margin == 0.02
        assert str(args.output) == "tuned.json"
        assert args.workload == "mixed"
        args = build_parser().parse_args(["ablate"])
        assert args.json is None
        assert args.run_timeout == 120.0
