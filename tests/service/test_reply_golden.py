"""Golden wire replies: every reply line must stay byte-identical.

``tests/fixtures/service_replies.json`` holds request lines and the reply
lines ``ServiceSession.handle_line`` gave for them before the reply
renderer was rewritten to build only the requested protocol version and
only the rows it emits.  The scenario covers v0 and v1 ``query`` replies
(labels and ``return_beliefs``, several methods) and ``read_view``
replies at ``limit`` absent, 0, 3, 10 and past the node count, plus
graph loads, updates, errors and the v0 ``stats`` line.  A query that
still asks for ``"dtype": "float32"`` pins the error that refuses it.

Every query pins ``num_iterations`` and every input is a dyadic
rational, so the belief values are exact in float64 whatever order a
kernel sums in: the fixture does not depend on the host's BLAS.

Regenerate (only when a reply format change is intended)::

    PYTHONPATH=src python tests/service/test_reply_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" \
    / "service_replies.json"

#: 15 nodes: two joined rings (0-5 and 6-11) with two weighted chords,
#: and three isolated nodes (12-14) whose rows stay zero unless labeled.
EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [2, 6], [6, 7],
         [7, 8], [8, 9], [9, 10], [10, 11], [11, 6], [3, 9, 2.0],
         [1, 7, 0.5]]
NUM_NODES = 15
BELIEFS = [[0, 0, 0.5], [0, 1, -0.25], [0, 2, -0.25],
           [7, 1, 0.5], [7, 0, -0.25], [7, 2, -0.25],
           [10, 2, 0.5], [10, 0, -0.25], [10, 1, -0.25],
           [13, 1, 0.25], [13, 0, -0.25]]
LIMITS = (None, 0, 3, 10, NUM_NODES + 5)


def _with_limit(request: dict, limit) -> dict:
    return request if limit is None else {**request, "limit": limit}


def _requests() -> List[dict]:
    """The scenario, in order; it is sent once as v0 and once as v1."""
    requests: List[dict] = [
        {"op": "load_graph", "name": "g", "edges": EDGES,
         "num_nodes": NUM_NODES},
        {"op": "load_coupling", "name": "h",
         "residual": [[0.5, -0.25, -0.25], [-0.25, 0.5, -0.25],
                      [-0.25, -0.25, 0.5]],
         "epsilon": 0.25, "classes": ["red", "green", "blue"]},
        {"op": "load_coupling", "name": "h2",
         "stochastic": [[0.75, 0.25], [0.25, 0.75]], "epsilon": 0.5},
        {"op": "ping"},
    ]
    query = {"op": "query", "graph": "g", "coupling": "h",
             "method": "linbp", "num_iterations": 3, "beliefs": BELIEFS}
    for limit in LIMITS:
        requests.append(_with_limit(query, limit))
        requests.append(_with_limit({**query, "return_beliefs": True},
                                    limit))
    requests += [
        {**query, "method": "linbp*", "num_iterations": 2, "limit": 3},
        {**query, "num_iterations": 2, "dtype": "float32",
         "return_beliefs": True, "limit": 0},
        {**query, "method": "sbp", "return_beliefs": True, "limit": 0},
        {**query, "method": "sbp", "limit": 0},
        {"op": "query", "graph": "g", "coupling": "h2", "method": "linbp",
         "num_iterations": 2, "beliefs": [[4, 0, 0.5], [4, 1, -0.5]],
         "limit": 0},
        {"op": "query", "graph": "g", "coupling": "h", "method": "linbp",
         "num_iterations": 1, "beliefs": [], "return_beliefs": True},
        {"op": "query", "graph": "g", "coupling": "h", "method": "linbp",
         "num_iterations": 1, "beliefs": []},
        {"op": "view", "graph": "g", "name": "w", "coupling": "h",
         "method": "sbp", "beliefs": BELIEFS},
    ]
    read = {"op": "read_view", "graph": "g", "name": "w"}
    requests += [_with_limit(read, limit) for limit in LIMITS]
    requests += [
        {"op": "update", "graph": "g", "edges": [[12, 13], [5, 8, 0.5]],
         "beliefs": [[14, 0, 0.5], [14, 1, -0.25], [14, 2, -0.25]]},
        {"op": "update", "graph": "g", "edges": [[13, 14]]},
    ]
    requests += [_with_limit(read, limit) for limit in LIMITS]
    requests += [
        # errors keep their messages
        {"op": "query", "graph": "g", "coupling": "h", "beliefs": [[0, 0]]},
        {"op": "query", "graph": "g", "coupling": "h",
         "beliefs": [[99, 0, 0.5]]},
        {"op": "query", "graph": "g", "coupling": "h",
         "beliefs": [[0, 7, 0.5]]},
        {"op": "query", "graph": "g", "coupling": "nope", "beliefs": []},
        {"op": "query", "coupling": "h", "beliefs": []},
        {"op": "read_view", "graph": "g", "name": "nope"},
        {"op": "load_graph", "name": "bad", "edges": [[0, 1], [2, 2]]},
        {"op": "load_graph", "name": "bad", "edges": [[0, 1], [-1, 2]]},
        {"op": "load_graph", "name": "bad", "edges": [[0, 1, -0.5]]},
        {"op": "load_graph", "name": "bad", "edges": [[0, 5]],
         "num_nodes": 3},
        {"op": "update", "graph": "g", "edges": [[0, 20]]},
        {"op": "update", "graph": "g", "edges": [[3, 3]]},
        {"op": "solve"},
    ]
    return requests


def _sessions() -> List[List[str]]:
    """One session per protocol version, each sending the whole scenario."""
    v0 = [json.dumps(request) for request in _requests()]
    v0 += ["{not json", json.dumps({"op": "ping", "v": 2}),
           json.dumps({"op": "stats"}), json.dumps({"op": "shutdown"})]
    v1 = [json.dumps({**request, "v": 1}) for request in _requests()]
    v1.append(json.dumps({"op": "shutdown", "v": 1}))
    return [v0, v1]


def _replay() -> List[Tuple[str, str]]:
    from repro.service import ServiceSession

    replies = []
    for lines in _sessions():
        session = ServiceSession(window_seconds=0.0)
        replies += [(line, session.handle_line(line)[0]) for line in lines]
    return replies


def test_replies_are_byte_identical_to_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    replayed = _replay()
    assert [line for line, _ in replayed] == \
        [entry["request"] for entry in expected]
    for (line, reply), entry in zip(replayed, expected):
        assert reply == entry["reply"], line


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        [{"request": line, "reply": reply} for line, reply in _replay()],
        indent=1) + "\n")
    print(f"wrote {FIXTURE}")
