"""The versioned line protocol: v1 JSON responses, error taxonomy, v0 parity.

v0 (no ``"v"`` in the request) is the legacy plain-text protocol and
must stay byte-identical — ``tests/service/test_server.py`` pins that.
This module covers what the redesign added: requests carrying
``"v": 1`` get structured JSON replies with a stable machine-readable
error-code taxonomy, exact float64 belief round-trips, and shape parity
with the v0 text (same facts, different encoding).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import (
    BackendError,
    ConvergenceError,
    DatasetError,
    NotConvergentParametersError,
    ReproError,
    SchemaError,
    ValidationError,
)
from repro.service import ServiceSession, error_code
from repro.service.protocol import ERROR_CODES


def _line(**request) -> str:
    return json.dumps(request)


def _session() -> ServiceSession:
    session = ServiceSession(window_seconds=0.0)
    response, _ = session.handle_line(_line(
        v=1, op="load_graph", name="g", edges=[[0, 1], [1, 2], [2, 3]]))
    assert json.loads(response)["ok"]
    response, _ = session.handle_line(_line(
        v=1, op="load_coupling", name="h",
        stochastic=[[0.9, 0.1], [0.1, 0.9]], epsilon=0.05))
    assert json.loads(response)["ok"]
    return session


def _query(session: ServiceSession, **extra):
    request = dict(v=1, op="query", graph="g", coupling="h",
                   beliefs=[[0, 0, 0.9], [0, 1, -0.9]])
    request.update(extra)
    response, keep_running = session.handle_line(_line(**request))
    assert keep_running
    return json.loads(response)


class TestV1Responses:
    def test_success_envelope(self):
        session = _session()
        body = _query(session)
        assert body["ok"] is True
        assert body["v"] == 1
        assert body["op"] == "query"
        assert body["method"] == "LinBP"
        assert isinstance(body["iterations"], int)
        assert body["converged"] is True
        assert body["snapshot_version"] == 0

    def test_labels_and_truncation_flag(self):
        session = _session()
        body = _query(session, limit=2)
        assert len(body["labels"]) == 2
        assert body["truncated"] is True
        node, label = body["labels"][0]
        assert isinstance(node, int) and isinstance(label, str)
        full = _query(session, limit=0)
        assert body["labels"] == full["labels"][:2]
        assert full["truncated"] is False

    def test_beliefs_round_trip_exact_float64(self):
        session = _session()
        body = _query(session, limit=0, return_beliefs=True)
        assert body["truncated"] is False
        # Re-solve directly and compare bit-for-bit: the v1 encoding
        # must not lose precision the way v0's %.6g text does.
        from repro.core import linbp

        service = session.service
        coupling = session.coupling("h")
        snapshot = service.snapshot("g")
        explicit = np.zeros((snapshot.graph.num_nodes, 2))
        explicit[0] = [0.9, -0.9]
        direct = linbp(snapshot.graph, coupling, explicit)
        decoded = {node: values for node, values in body["beliefs"]}
        for node, values in decoded.items():
            assert values == [float(v) for v in direct.beliefs[node]]

    def test_repeated_belief_cell_keeps_the_last_value(self):
        session = _session()
        repeated = _query(session, limit=0, return_beliefs=True,
                          beliefs=[[0, 0, 0.9], [0, 1, -0.9],
                                   [0, 0, 0.2], [0, 1, -0.2]])
        last = _query(session, limit=0, return_beliefs=True,
                      beliefs=[[0, 0, 0.2], [0, 1, -0.2]])
        assert repeated["beliefs"] == last["beliefs"]

    def test_ping_stats_and_shutdown(self):
        session = _session()
        response, _ = session.handle_line(_line(v=1, op="ping"))
        assert json.loads(response) == {"ok": True, "v": 1, "op": "ping"}
        response, _ = session.handle_line(_line(v=1, op="stats"))
        stats = json.loads(response)["stats"]
        assert stats["queries"] == 0 and stats["graphs"] == {"g": 0}
        response, keep_running = session.handle_line(_line(v=1, op="shutdown"))
        assert json.loads(response)["ok"] is True
        assert keep_running is False

    def test_staleness_field_reaches_the_service(self):
        session = _session()
        first = _query(session)
        response, _ = session.handle_line(_line(
            v=1, op="update", graph="g", edges=[[0, 3]]))
        assert json.loads(response)["version"] == 1
        stale = _query(session, staleness=1)
        assert stale["snapshot_version"] == first["snapshot_version"] == 0
        fresh = _query(session)
        assert fresh["snapshot_version"] == 1


class TestV1ErrorPaths:
    def test_malformed_json_is_a_v0_error(self):
        session = _session()
        response, keep_running = session.handle_line("{not json")
        assert response.startswith("error invalid JSON")
        assert keep_running

    def test_unsupported_version_is_a_v0_error(self):
        session = _session()
        response, _ = session.handle_line(_line(v=2, op="ping"))
        assert response == "error unsupported protocol version 2 " \
                           "(supported: 0, 1)"

    def test_unknown_op(self):
        session = _session()
        body = json.loads(session.handle_line(_line(v=1, op="solve"))[0])
        assert body["ok"] is False
        assert body["error"]["code"] == "unknown-op"

    def test_missing_field(self):
        session = _session()
        body = json.loads(session.handle_line(
            _line(v=1, op="query", coupling="h"))[0])
        assert body["error"]["code"] == "missing-field"
        assert "graph" in body["error"]["message"]

    def test_non_object_request(self):
        session = _session()
        body_list = session.handle_line('[1, 2, 3]')[0]
        assert body_list.startswith("error ")

    @pytest.mark.parametrize("op,fields", [
        ("query", {"coupling": "h"}),
        ("view", {"name": "w", "coupling": "h"}),
        ("update", {"coupling": "h"}),
    ], ids=["query", "view", "update"])
    @pytest.mark.parametrize("beliefs,fragment", [
        ("[[0, 0]]", "triples"),                      # short row
        ("[[99, 0, 0.5]]", "node 99 out of range"),   # node past the graph
        ("[[0, 7, 0.5]]", "class 7 out of range"),    # class past the coupling
        ("[[0, 0, NaN]]", "belief value nan for node 0 class 0 is not finite"),
        ("[[0, 0, 0.5], [1, 1, Infinity]]", "value inf for node 1 class 1"),
        ("[[2, 1, -Infinity]]", "value -inf for node 2 class 1"),
        ("[[0, 0, 1e309]]", "value inf for node 0 class 0"),  # overflows
        ('[[0, 0, 0.5], ["1", "0", "NaN"]]', "not finite"),   # row by row
    ], ids=["short-row", "node-range", "class-range", "nan", "infinity",
            "minus-infinity", "overflow", "string-nan"])
    def test_oversized_or_malformed_belief_rows(self, op, fields, beliefs,
                                                fragment):
        # The beliefs go in as raw JSON text: NaN, Infinity and 1e309 are
        # what a client can put on the wire.
        session = _session()
        line = _line(v=1, op=op, graph="g", **fields)[:-1] \
            + f', "beliefs": {beliefs}}}'
        body = json.loads(session.handle_line(line)[0])
        assert body["ok"] is False
        assert body["error"]["code"] == "validation"
        assert fragment in body["error"]["message"]
        assert session.service.snapshot("g").version == 0
        assert session.service.view_names("g") == []

    @pytest.mark.parametrize("request_fields, field", [
        (dict(op="load_graph", name="g2", edges=[[0, "a"]]), "edges"),
        (dict(op="load_graph", name="g2", edges=5), "edges"),
        (dict(op="load_graph", name="g2", edges=[[0, 1]], num_nodes="many"),
         "num_nodes"),
        (dict(op="update", graph="g", edges=5), "edges"),
        (dict(op="load_coupling", name="h2", stochastic="x"), "stochastic"),
        (dict(op="load_coupling", name="h2", stochastic=[[1, 0], [0, 1]],
              epsilon="x"), "epsilon"),
        (dict(op="load_coupling", name="h2", stochastic=[[1, 0], [0, 1]],
              classes="ab"), "classes"),
        (dict(op="view", graph="g", name="w", coupling="h", beliefs=3),
         "beliefs"),
    ], ids=["edge-value", "edges-scalar", "num-nodes", "update-edges",
            "stochastic", "epsilon", "classes", "view-beliefs"])
    def test_malformed_payloads_of_other_ops(self, request_fields, field):
        session = _session()
        for version in (0, 1):
            reply, _ = session.handle_line(_line(v=version, **request_fields))
            if version == 0:
                assert reply.startswith("error ") and field in reply, reply
                continue
            error = json.loads(reply)["error"]
            assert error["code"] == "validation", error
            assert field in error["message"]
        assert session.service.graph_names() == ["g"]
        assert session.service.snapshot("g").version == 0
        assert session.service.view_names("g") == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coupling_scale_refused(self, literal):
        # NaN and ±Infinity are what a client can put on the wire.
        session = _session()
        request = _line(op="load_coupling", name="h2",
                        stochastic=[[0.8, 0.2], [0.2, 0.8]])[:-1] \
            + f', "epsilon": {literal}}}'
        v0, _ = session.handle_line(request)
        assert v0.startswith("error epsilon (the coupling scale) must be "
                             "positive and finite")
        v1 = json.loads(session.handle_line(request[:-1] + ', "v": 1}')[0])
        assert v1["error"]["code"] == "validation"
        assert "epsilon" in v1["error"]["message"]
        assert _query(session, coupling="h2")["error"]["message"] == \
            "unknown coupling 'h2'"

    def test_negative_limit_is_rejected(self):
        session = _session()
        body = _query(session, limit=-1)
        assert body["error"]["code"] == "validation"
        assert "limit must be >= 0" in body["error"]["message"]
        session.handle_line(_line(v=1, op="view", graph="g", name="w",
                                  coupling="h", beliefs=[[0, 0, 0.9]]))
        body = json.loads(session.handle_line(_line(
            v=1, op="read_view", graph="g", name="w", limit=-1))[0])
        assert body["error"]["code"] == "validation"
        assert _query(session, limit=0)["ok"] is True

    def test_validation_code_for_bad_spec(self):
        session = _session()
        body = _query(_session(), method="bp")
        assert body["error"]["code"] == "validation"
        body = _query(session, tolerance=0)
        assert body["error"]["code"] == "validation"
        # A literal 1e400 parses to inf; it must not answer "converged".
        line = _line(v=1, op="query", graph="g", coupling="h",
                     beliefs=[[0, 0, 0.9], [0, 1, -0.9]])
        response, _ = session.handle_line(line[:-1] + ', "tolerance": 1e400}')
        assert json.loads(response)["error"]["code"] == "validation"
        # An integer literal past float range parses to an int that
        # float() cannot convert.
        response, _ = session.handle_line(
            line[:-1] + ', "tolerance": 1' + "0" * 400 + "}")
        assert json.loads(response)["error"]["code"] == "validation"

    @pytest.mark.parametrize("fragment", [
        '"max_iterations": true', '"max_iterations": 2.7',
        '"num_iterations": false', '"num_iterations": 2.5',
        '"tolerance": Infinity', '"tolerance": NaN', '"tolerance": "1e400"',
    ])
    def test_malformed_budget_refused_in_both_versions(self, fragment):
        session = _session()
        field = fragment.split('"')[1]
        request = _line(op="query", graph="g", coupling="h",
                        beliefs=[[0, 0, 0.9], [0, 1, -0.9]])
        v1, _ = session.handle_line(
            request[:-1] + f', "v": 1, {fragment}}}')
        error = json.loads(v1)["error"]
        assert error["code"] == "validation"
        assert field in error["message"]
        v0, _ = session.handle_line(request[:-1] + f', {fragment}}}')
        assert v0.startswith("error ") and field in v0

    @pytest.mark.parametrize("field, value", [
        ("limit", True), ("limit", 2.5), ("limit", "all"),
        ("staleness", True), ("staleness", 0.5), ("staleness", "soon")])
    def test_limit_and_staleness_must_be_whole_numbers(self, field, value):
        body = _query(_session(), **{field: value})
        assert body["error"]["code"] == "validation"
        assert field in body["error"]["message"]

    def test_numeric_string_limit_is_accepted(self):
        body = _query(_session(), limit="1")
        assert body["ok"] is True
        assert len(body["labels"]) == 1 and body["truncated"] is True

    @pytest.mark.parametrize("field, value", [
        ("dtype", "float32"), ("dtype", "float64"), ("precision", "auto")])
    def test_retired_fields_are_refused_by_name(self, field, value):
        session = _session()
        body = _query(session, **{field: value})
        assert body["error"]["code"] == "validation"
        assert repr(field) in body["error"]["message"]
        v0, _ = session.handle_line(_line(
            op="query", graph="g", coupling="h", beliefs=[[0, 0, 0.9]],
            **{field: value}))
        assert v0.startswith("error ") and repr(field) in v0

    def test_unknown_coupling_and_graph(self):
        session = _session()
        body = _query(session, coupling="nope")
        assert body["error"]["code"] == "validation"
        body = _query(session, graph="nope")
        assert body["error"]["code"] == "validation"

    def test_overload_response_in_both_versions(self):
        session = _session()
        v1 = session.overload_response(_line(v=1, op="ping"), "busy")
        assert json.loads(v1)["error"]["code"] == "overloaded"
        v0 = session.overload_response(_line(op="ping"), "busy")
        assert v0 == "error busy"
        garbage = session.overload_response("{not json", "busy")
        assert garbage == "error busy"


def _strict_json(line: str) -> dict:
    """Parse a v1 line as strict JSON: NaN and ±Infinity literals raise."""
    def refuse(constant):
        raise AssertionError(f"non-JSON constant {constant} in {line!r}")
    return json.loads(line, parse_constant=refuse)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteResults:
    """Diverged or overflowed beliefs answer ``convergence``, never ``ok``.

    ``lemma8``: ε = 50 on a 50-node ring is far beyond the Lemma 8 limit,
    so LinBP diverges over its 2,000 sweeps.  ``overflow``: ε = 2 converges,
    but explicit values of 1e308 overflow float64 on the first sweeps.
    """

    RING = [[node, (node + 1) % 50] for node in range(50)]
    CASES = {"lemma8": (50.0, 0.1, 2000), "overflow": (2.0, 1e308, 100)}

    @pytest.mark.parametrize("version", [0, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_query_view_and_read_view(self, case, version):
        epsilon, value, max_iterations = self.CASES[case]
        session = ServiceSession(window_seconds=0.0)
        session.handle_line(_line(op="load_graph", name="ring",
                                  edges=self.RING))
        session.handle_line(_line(op="load_coupling", name="h",
                                  residual=[[0.1, -0.1], [-0.1, 0.1]],
                                  epsilon=epsilon))
        beliefs = [[0, 0, value], [0, 1, -value]]
        requests = [
            ("LinBP", max_iterations,
             dict(op="query", graph="ring", coupling="h", beliefs=beliefs,
                  max_iterations=max_iterations, return_beliefs=True,
                  limit=0)),
            ("LinBP (incremental)", 200,
             dict(op="view", graph="ring", name="w", coupling="h",
                  method="linbp", beliefs=beliefs)),
            ("LinBP (incremental)", 200,
             dict(op="read_view", graph="ring", name="w", limit=0)),
        ]
        for method, iterations, request in requests:
            if version:
                request["v"] = 1
            response, keep_running = session.handle_line(_line(**request))
            assert keep_running
            expected = (f"{method} produced non-finite beliefs after "
                        f"{iterations} iterations")
            if version == 0:
                assert response.startswith(f"error {expected}"), response
                continue
            body = _strict_json(response)
            assert body["ok"] is False, response
            assert body["error"]["code"] == "convergence"
            assert body["error"]["message"].startswith(expected)

    def test_v1_render_refuses_non_finite_floats(self):
        from repro.service.protocol import _render_ok

        with pytest.raises(ValueError):
            _render_ok(1, "query", [("beliefs", [[0, [float("-inf")]]])])


class TestErrorCodeTaxonomy:
    def test_most_specific_class_wins(self):
        assert error_code(NotConvergentParametersError("x")) \
            == "not-convergent"
        assert error_code(ConvergenceError("x")) == "convergence"
        assert error_code(ValidationError("x")) == "validation"
        assert error_code(BackendError("x")) == "backend"
        assert error_code(SchemaError("x")) == "schema"
        assert error_code(DatasetError("x")) == "dataset"
        assert error_code(ReproError("x")) == "repro"

    def test_builtin_and_unknown_exceptions(self):
        assert error_code(ValueError("x")) == "bad-value"
        assert error_code(TypeError("x")) == "bad-value"
        assert error_code(OverflowError("x")) == "bad-value"
        assert error_code(RuntimeError("x")) == "internal"

    def test_taxonomy_is_ordered_most_specific_first(self):
        classes = [entry[0] for entry in ERROR_CODES]
        for index, cls in enumerate(classes):
            for later in classes[index + 1:]:
                assert not issubclass(later, cls) or later is cls, (
                    f"{later.__name__} is shadowed by {cls.__name__}")


class TestV0V1Parity:
    """Same facts on both wires: v1 restructures, never re-derives."""

    def _both(self, session, request):
        v0, _ = session.handle_line(_line(**request))
        v1, _ = session.handle_line(_line(v=1, **request))
        return v0, json.loads(v1)

    def test_load_graph_parity(self):
        session = ServiceSession(window_seconds=0.0)
        v0, v1 = self._both(session, dict(
            op="load_graph", name="g2", edges=[[0, 1], [1, 2]]))
        # v0 created the graph; re-register under a new name for v1.
        assert v0 == "ok graph name=g2 nodes=3 edges=2 version=0"
        assert v1["error"]["code"] == "validation"  # duplicate name
        response, _ = session.handle_line(_line(
            v=1, op="load_graph", name="g3", edges=[[0, 1], [1, 2]]))
        body = json.loads(response)
        assert (body["name"], body["nodes"], body["edges"],
                body["version"]) == ("g3", 3, 2, 0)

    def test_query_parity(self):
        session = _session()
        request = dict(op="query", graph="g", coupling="h",
                       beliefs=[[0, 0, 0.9], [0, 1, -0.9]], limit=2)
        v0, v1 = self._both(session, request)
        head, _, labels_text = v0.partition(" labels=")
        assert head.startswith("ok query method=LinBP iterations=")
        assert v1["method"] == "LinBP"
        assert f"iterations={v1['iterations']}" in head
        assert f"converged={'true' if v1['converged'] else 'false'}" in head
        v0_pairs = [pair for pair in labels_text.split(",")
                    if pair != "..."]
        v0_labels = [pair.split(":") for pair in v0_pairs]
        assert [[int(node), label] for node, label in v0_labels] \
            == v1["labels"]
        assert v1["truncated"] == labels_text.endswith(",...")

    def test_ping_parity(self):
        session = _session()
        v0, v1 = self._both(session, dict(op="ping"))
        assert v0 == "ok pong"
        assert v1 == {"ok": True, "v": 1, "op": "ping"}

    def test_error_message_parity(self):
        session = _session()
        v0, v1 = self._both(session, dict(op="nope"))
        assert v0 == "error " + v1["error"]["message"]


def _hard_label_pairs(beliefs):
    """(node, label) pairs from BeliefMatrix.hard_labels over every row."""
    from repro.beliefs import BeliefMatrix

    labels = BeliefMatrix(beliefs).hard_labels()
    return [(node, int(labels[node])) for node in np.flatnonzero(labels >= 0)]


class TestLabelPayload:
    """Labels are computed for the emitted rows only, by hard_labels' rules."""

    def _payload(self, beliefs, limit, version=1):
        from repro.core.results import PropagationResult
        from repro.coupling import homophily_matrix
        from repro.service.protocol import _label_payload

        result = PropagationResult(beliefs=beliefs, method="LinBP",
                                   iterations=1, converged=True)
        coupling = homophily_matrix(epsilon=0.1).scaled(0.1)
        return _label_payload(result, coupling, limit, version), coupling

    def test_matches_hard_labels_on_the_emitted_rows(self):
        beliefs = np.array([[0.0, 0.0],      # all zero: no label
                            [0.2, -0.2],
                            [0.1, 0.1],      # tie: lowest class id
                            [-0.3, 0.3],
                            [0.0, 0.0],
                            [0.0, -0.0],     # negative zero is zero
                            [0.5, -0.5]])
        expected = _hard_label_pairs(beliefs)
        for limit in (0, 1, 2, 3, 4, 10):
            (rows, truncated), coupling = self._payload(beliefs, limit)
            emitted = expected[:limit] if limit else expected
            assert rows == [[node, coupling.name_of(label)]
                            for node, label in emitted]
            assert truncated == (limit != 0 and limit < len(expected))
        (text, truncated), coupling = self._payload(beliefs, 2, version=0)
        assert text == ",".join(f"{node}:{coupling.name_of(label)}"
                                for node, label in expected[:2]) + ",..."

    def test_no_labeled_rows(self):
        (rows, truncated), _ = self._payload(np.zeros((3, 2)), 5)
        assert rows == [] and truncated is False
        (text, _), _ = self._payload(np.zeros((3, 2)), 5, version=0)
        assert text == "-"

