"""Fuzzing ``ServiceSession.handle_line`` with v1 ``query`` requests.

Whatever JSON values a query's spec fields carry — and whether or not it
brings the retired ``dtype``/``precision`` keys — the session must give
exactly one reply line.  That line is strict JSON (no NaN or ±Infinity
literal), and it is either ``ok`` with finite beliefs or an error whose
code comes from the exception taxonomy :data:`ERROR_CODES`: a bad field
is a ``validation`` error, never ``bad-value``, ``internal`` or a
silently coerced answer.

The property is derandomized and its example count bounded, so every
run replays the same examples in about the same time.  Integers are
kept small and digit-free strings are drawn, so a pinned
``num_iterations`` stays cheap on the 12-node graph; integers past float
range go only to the fields where such a value is refused or harmless,
never to a sweep budget, which would be run.
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
