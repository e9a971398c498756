"""Fuzzing ``ServiceSession.handle_line`` with v1 requests of every op.

Whatever JSON values a request's fields carry — a query's spec fields
and the retired ``dtype``/``precision`` keys, or the payloads of
``load_graph``, ``load_coupling``, ``view``, ``read_view`` and
``update`` — the session must give exactly one reply line.  That line is
strict JSON (no NaN or ±Infinity literal), and it is either ``ok`` (for
a query, with finite beliefs) or an error whose code comes from the
exception taxonomy :data:`ERROR_CODES`: a bad field is a ``validation``
error, never ``bad-value``, ``internal`` or a silently coerced answer.

The properties are derandomized and their example counts bounded, so
every run replays the same examples in about the same time.  Integers
are kept small and digit-free strings are drawn, so a pinned
``num_iterations`` stays cheap on the 12-node graph, and node ids stay
small; integers past float range go only to the fields where such a
value is refused or harmless, never to a sweep budget, which would be
run.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceSession
from repro.service.protocol import ERROR_CODES
from repro.service.spec import RETIRED_FIELDS

CODES = {code for _, code in ERROR_CODES}

FIELDS = ("method", "max_iterations", "num_iterations", "tolerance",
          "staleness", "limit")

BELIEFS = [[0, 0, 0.5], [0, 1, -0.5], [6, 1, 0.25], [6, 0, -0.25]]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e-300, 1e-8, 2.7]),
    st.text(alphabet="abelinpsx*.-+ ", max_size=6),
    st.sampled_from(["linbp", "linbp*", "sbp", "bp", "50", "1e-8", "2.7",
                     "1e400", "nan", "float32", "auto"]),
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(alphabet="abc", max_size=3), children,
                        max_size=3)),
    max_leaves=5)


#: Malformed values per field.
HUGE = st.sampled_from([10**400, -10**400])
MALFORMED = {name: json_values for name in FIELDS}
MALFORMED.update({name: st.one_of(json_values, HUGE)
                  for name in ("method", "tolerance", "staleness", "limit")})

#: Well-formed values per field, drawn three times in four so that a
#: good share of the requests is answered ``ok``.
VALID = {
    "method": st.sampled_from(["linbp", "linbp*", "sbp"]),
    "max_iterations": st.integers(min_value=1, max_value=40),
    "num_iterations": st.integers(min_value=1, max_value=20),
    "tolerance": st.sampled_from([1e-10, 1e-8, 1e-4, "1e-6"]),
    "staleness": st.integers(min_value=0, max_value=3),
    "limit": st.integers(min_value=0, max_value=20),
}


@st.composite
def query_requests(draw):
    request = {"v": 1, "op": "query", "graph": "g", "coupling": "h",
               "beliefs": BELIEFS, "return_beliefs": draw(st.booleans())}
    for name in sorted(draw(st.sets(st.sampled_from(FIELDS)))):
        well_formed = draw(st.sampled_from([True, True, True, False]))
        request[name] = draw(VALID[name] if well_formed else MALFORMED[name])
    for name in RETIRED_FIELDS:
        if draw(st.sampled_from([False, False, False, False, True])):
            request[name] = draw(json_values)
    return request


@lru_cache(maxsize=None)
def _session() -> ServiceSession:
    session = ServiceSession(window_seconds=0.0)
    ring = [[node, (node + 1) % 12] for node in range(12)]
    for line in (
            {"v": 1, "op": "load_graph", "name": "g", "edges": ring},
            {"v": 1, "op": "load_coupling", "name": "h",
             "stochastic": [[0.8, 0.2], [0.2, 0.8]], "epsilon": 0.5}):
        reply, _ = session.handle_line(json.dumps(line))
        assert json.loads(reply)["ok"], reply
    return session


def _reject_constant(name):
    raise AssertionError(f"reply carries the non-JSON literal {name}")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(request=query_requests())
def test_every_query_gets_one_strict_typed_reply(request):
    reply, keep_running = _session().handle_line(json.dumps(request))
    assert keep_running
    assert reply and "\n" not in reply
    body = json.loads(reply, parse_constant=_reject_constant)
    assert body["v"] == 1
    if not body["ok"]:
        assert body["error"]["code"] in CODES, body
        return
    assert not set(RETIRED_FIELDS) & set(request), body
    assert isinstance(body["iterations"], int)
    assert isinstance(body["converged"], bool)
    if request["return_beliefs"]:
        for _, values in body["beliefs"]:
            assert all(math.isfinite(value) for value in values)


#: Per op and field: (required, well-formed values, malformed values).
#: Rows of arbitrary scalars exercise edge and belief rows element by
#: element.
rows = st.lists(st.lists(scalars, max_size=4), max_size=3)
OP_FIELDS = {
    "load_graph": {
        "name": (True, st.text(alphabet="gk", min_size=1, max_size=3),
                 json_values),
        "edges": (True, st.lists(st.lists(st.integers(0, 15), min_size=2,
                                          max_size=2), max_size=6),
                  st.one_of(json_values, rows, HUGE)),
        "num_nodes": (False, st.integers(0, 20),
                      st.one_of(json_values, HUGE)),
    },
    "load_coupling": {
        "name": (True, st.sampled_from(["h", "h3", "k"]), json_values),
        "stochastic": (False, st.sampled_from([
            [[0.8, 0.2], [0.2, 0.8]],
            [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]]),
            st.one_of(json_values, rows, HUGE)),
        "residual": (False, st.just([[0.5, -0.5], [-0.5, 0.5]]),
                     st.one_of(json_values, rows)),
        "epsilon": (False, st.floats(min_value=0.01, max_value=1.0),
                    st.one_of(json_values, HUGE)),
        "classes": (False, st.sampled_from([["a", "b"], ["x", "y", "z"]]),
                    json_values),
    },
    "view": {
        "graph": (True, st.just("g"), json_values),
        "name": (True, st.sampled_from(["v", "w"]), json_values),
        "coupling": (True, st.just("h"), json_values),
        "method": (False, st.sampled_from(["sbp", "linbp", "linbp*"]),
                   json_values),
        "beliefs": (True, st.just(BELIEFS), st.one_of(json_values, rows)),
    },
    "read_view": {
        "graph": (True, st.just("g"), json_values),
        "name": (True, st.sampled_from(["v", "w"]), json_values),
        "limit": (False, st.integers(0, 20), st.one_of(json_values, HUGE)),
    },
    "update": {
        "graph": (True, st.just("g"), json_values),
        "edges": (False, st.lists(st.lists(st.integers(0, 11), min_size=2,
                                           max_size=2),
                                  min_size=1, max_size=2),
                  st.one_of(json_values, rows, HUGE)),
        "beliefs": (False, st.just([[3, 1, 0.1]]),
                    st.one_of(json_values, rows)),
        "coupling": (False, st.just("h"), json_values),
    },
}


@st.composite
def op_requests(draw):
    op = draw(st.sampled_from(sorted(OP_FIELDS)))
    request = {"v": 1, "op": op}
    for name, (required, valid, malformed) in sorted(OP_FIELDS[op].items()):
        if not required and draw(st.booleans()):
            continue
        well_formed = draw(st.sampled_from([True, True, True, False]))
        request[name] = draw(valid if well_formed else malformed)
    return request


@lru_cache(maxsize=None)
def _ops_session() -> ServiceSession:
    """A session of its own: these requests change graphs and views."""
    session = ServiceSession(window_seconds=0.0)
    ring = [[node, (node + 1) % 12] for node in range(12)]
    for line in (
            {"v": 1, "op": "load_graph", "name": "g", "edges": ring},
            {"v": 1, "op": "load_coupling", "name": "h",
             "stochastic": [[0.8, 0.2], [0.2, 0.8]], "epsilon": 0.5},
            {"v": 1, "op": "view", "graph": "g", "name": "v",
             "coupling": "h", "beliefs": BELIEFS}):
        reply, _ = session.handle_line(json.dumps(line))
        assert json.loads(reply)["ok"], reply
    return session


@settings(max_examples=300, derandomize=True, deadline=None)
@given(request=op_requests())
def test_every_other_op_gets_one_strict_typed_reply(request):
    reply, keep_running = _ops_session().handle_line(json.dumps(request))
    assert keep_running
    assert reply and "\n" not in reply
    body = json.loads(reply, parse_constant=_reject_constant)
    assert body["v"] == 1
    if not body["ok"]:
        assert body["error"]["code"] in CODES, body
