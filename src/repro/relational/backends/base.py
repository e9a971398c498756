"""The paper's SQL program, run on the stdlib SQLite engine.

The paper's headline systems claim (Section 5.3, Section 6.3) is that LinBP
and SBP need nothing beyond standard SQL: joins, GROUP BY aggregates, and a
client loop.  :class:`SQLiteBackend` is the one relational implementation of
that claim — ``connect`` / ``load_graph`` / ``run_linbp`` / ``run_sbp`` /
``add_explicit_beliefs`` / ``add_edges`` / ``fetch_beliefs`` — and every
query it issues is plain standard SQL over :mod:`sqlite3`.  The only dialect
requirement is ``UPDATE ... FROM`` (SQLite ≥ 3.33, released 2020), checked
when the connection opens.

The compiled SQL program per algorithm:

* **LinBP** (Algorithm 1, zero-start semantics of
  :func:`repro.engine.batch.run_batch`) — one ``UPDATE beliefs ... FROM``
  per iteration whose source is the UNION ALL of the explicit beliefs, the
  neighbour join-aggregate ``A ⋈ B ⋈ Ĥ`` and (for LinBP, not LinBP*) the
  negated echo term ``D ⋈ B ⋈ Ĥ²``, grouped on ``(v, c)``.  The stopping
  test ``MAX(ABS(b − b_prev))`` also runs in SQL, so convergence is decided
  without shipping beliefs to Python.
* **SBP** (Algorithm 2) — level by level, as lines 4–5 do: per geodesic
  level one ``INSERT … SELECT`` adds the unvisited neighbours of the level
  below (an anti-join on ``geodesic``), then one INSERT fills their
  beliefs, whose per-node segment sums are window functions
  (``SUM(...) OVER (PARTITION BY target, class)`` — the SQL analogue of the
  per-level parent sum in :mod:`repro.engine.sbp_plan`).
* **ΔSBP** (Algorithms 3–4) — the SBP relations are read once, repaired by
  the engine's frontier repairs
  (:func:`~repro.engine.sbp_plan.repair_explicit_beliefs` /
  :func:`~repro.engine.sbp_plan.repair_added_edges`, the code that also
  maintains :class:`repro.core.sbp.SBP`), and only the touched rows are
  written back, in one transaction.

Beliefs live in the database for the whole run: with ``materialize=False``
(and :meth:`SQLiteBackend.top_labels`, which ranks beliefs with a window
function) a graph streamed onto disk is labeled without ever building the
dense ``n × k`` belief matrix in Python — the out-of-core path.
"""

from __future__ import annotations

import itertools
import sqlite3
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.beliefs.beliefs import checked_explicit, checked_update
from repro.core.results import PropagationResult
from repro.coupling.matrices import CouplingMatrix
from repro.engine.sbp_plan import (
    RepairStats,
    repair_added_edges,
    repair_explicit_beliefs,
)
from repro.exceptions import (
    BackendStateError,
    BackendUnavailableError,
    ValidationError,
)
from repro.graphs.geodesic import UNREACHABLE
from repro.graphs.graph import EdgeLike, Graph

__all__ = ["SQLiteBackend", "INSERT_CHUNK_ROWS"]

#: UPDATE ... FROM landed in SQLite 3.33.0.
_MIN_VERSION = (3, 33, 0)

#: Rows per ``executemany`` chunk while streaming edges/beliefs into the
#: database — bounds Python-side memory regardless of graph size.
INSERT_CHUNK_ROWS = 10_000


def _chunks(rows: Iterable[Sequence[Any]], size: int = INSERT_CHUNK_ROWS
            ) -> Iterator[List[Sequence[Any]]]:
    iterator = iter(rows)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


# ---------------------------------------------------------------------- #
# the shared SQL program
# ---------------------------------------------------------------------- #
# Section 5.3's relations: edges == A(s,t,w) (both directions), explicit ==
# E(v,c,b), coupling == H(c1,c2,h) holding the *scaled* residual coupling,
# plus the derived degrees == D(v,d) and coupling_sq == H2.  ``beliefs`` /
# ``beliefs_prev`` are the ping-pong pair of the iteration, dense over
# nodes x classes exactly like the engine's buffers; ``geodesic`` == G(v,g)
# holds the geodesic numbers of the last SBP run.
_TABLES = ("meta", "nodes", "classes", "edges", "explicit", "coupling",
           "coupling_sq", "degrees", "beliefs", "beliefs_prev", "geodesic")

_INDEXES = ("idx_edges_s", "idx_edges_t", "idx_geodesic_g")

_CREATE_SCHEMA = [
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE nodes (v INTEGER PRIMARY KEY)",
    "CREATE TABLE classes (c INTEGER PRIMARY KEY)",
    "CREATE TABLE edges (s INTEGER NOT NULL, t INTEGER NOT NULL, "
    "w DOUBLE PRECISION NOT NULL)",
    "CREATE TABLE explicit (v INTEGER NOT NULL, c INTEGER NOT NULL, "
    "b DOUBLE PRECISION NOT NULL, PRIMARY KEY (v, c))",
    "CREATE TABLE coupling (c1 INTEGER NOT NULL, c2 INTEGER NOT NULL, "
    "h DOUBLE PRECISION NOT NULL, PRIMARY KEY (c1, c2))",
    "CREATE TABLE coupling_sq (c1 INTEGER NOT NULL, c2 INTEGER NOT NULL, "
    "h DOUBLE PRECISION NOT NULL, PRIMARY KEY (c1, c2))",
    "CREATE TABLE degrees (v INTEGER PRIMARY KEY, d DOUBLE PRECISION NOT NULL)",
    "CREATE TABLE beliefs (v INTEGER NOT NULL, c INTEGER NOT NULL, "
    "b DOUBLE PRECISION NOT NULL, PRIMARY KEY (v, c))",
    "CREATE TABLE beliefs_prev (v INTEGER NOT NULL, c INTEGER NOT NULL, "
    "b DOUBLE PRECISION NOT NULL, PRIMARY KEY (v, c))",
    "CREATE TABLE geodesic (v INTEGER PRIMARY KEY, g INTEGER NOT NULL)",
    "CREATE INDEX idx_edges_s ON edges (s)",
    "CREATE INDEX idx_edges_t ON edges (t)",
    "CREATE INDEX idx_geodesic_g ON geodesic (g)",
]

#: 0..n-1 without client-side row generation.
_FILL_NODES = """
INSERT INTO nodes (v)
WITH RECURSIVE seq(v) AS (
    SELECT 0 WHERE ? > 0
    UNION ALL
    SELECT v + 1 FROM seq WHERE v + 1 < ?
)
SELECT v FROM seq
"""

#: D(s, sum(w*w)) :- A(s, t, w)  — the Section 5.2 squared-weight degrees.
_FILL_DEGREES = """
INSERT INTO degrees (v, d)
SELECT s, SUM(w * w) FROM edges GROUP BY s
"""

#: H2 via the self-join of Eq. 20 / Fig. 9a.
_FILL_COUPLING_SQ = """
INSERT INTO coupling_sq (c1, c2, h)
SELECT a.c1, b.c2, SUM(a.h * b.h)
FROM coupling AS a JOIN coupling AS b ON a.c2 = b.c1
GROUP BY a.c1, b.c2
"""

#: Dense zero beliefs — the engine's B^0 = 0 start (run_batch semantics).
_RESET_BELIEFS = [
    "DELETE FROM beliefs",
    "INSERT INTO beliefs (v, c, b) "
    "SELECT nodes.v, classes.c, 0.0 FROM nodes CROSS JOIN classes",
]

_STAGE_PREVIOUS = [
    "DELETE FROM beliefs_prev",
    "INSERT INTO beliefs_prev (v, c, b) SELECT v, c, b FROM beliefs",
]

#: One LinBP iteration (Algorithm 1, lines 3-4) as a single UPDATE ... FROM
#: whose source unions the three contributions of footnote 15 and groups on
#: (v, c).  Rows absent from the source belong to edgeless unlabeled nodes,
#: whose belief is identically zero — exactly what the UPDATE leaves behind.
_LINBP_ECHO_TERM = """
        UNION ALL
        SELECT d.v AS v, h2.c2 AS c, -(d.d * p.b * h2.h) AS b
        FROM degrees AS d
        JOIN beliefs_prev AS p ON p.v = d.v
        JOIN coupling_sq AS h2 ON h2.c1 = p.c"""

_LINBP_UPDATE_TEMPLATE = """
UPDATE beliefs SET b = src.b
FROM (
    SELECT parts.v AS v, parts.c AS c, SUM(parts.b) AS b
    FROM (
        SELECT v, c, b FROM explicit
        UNION ALL
        SELECT e.t AS v, h.c2 AS c, e.w * p.b * h.h AS b
        FROM edges AS e
        JOIN beliefs_prev AS p ON p.v = e.s
        JOIN coupling AS h ON h.c1 = p.c{echo_term}
    ) AS parts
    GROUP BY parts.v, parts.c
) AS src
WHERE beliefs.v = src.v AND beliefs.c = src.c
"""

LINBP_UPDATE_SQL = _LINBP_UPDATE_TEMPLATE.format(echo_term=_LINBP_ECHO_TERM)
LINBP_STAR_UPDATE_SQL = _LINBP_UPDATE_TEMPLATE.format(echo_term="")

#: The stopping test of Section 5.3 — evaluated inside the database.
_MAX_CHANGE = """
SELECT MAX(ABS(beliefs.b - beliefs_prev.b))
FROM beliefs JOIN beliefs_prev
    ON beliefs_prev.v = beliefs.v AND beliefs_prev.c = beliefs.c
"""

#: Level 0 of Algorithm 2 (line 1): labeled nodes get geodesic number 0
#: and keep their explicit beliefs.
_SBP_SEED = [
    "DELETE FROM geodesic",
    "INSERT INTO geodesic (v, g) SELECT DISTINCT v, 0 FROM explicit",
    "DELETE FROM beliefs",
    "INSERT INTO beliefs (v, c, b) SELECT v, c, b FROM explicit",
]

#: Algorithm 2, line 4: G(t, i) :- G(s, i−1), A(s, t, _), ¬G(t, _).  The
#: unvisited neighbours of level i−1 form level i; the index on g keeps the
#: scan of level i−1 to that level, so all levels together read every edge
#: once.  Parameters: (i, i − 1).
_GEODESIC_LEVEL_SQL = """
INSERT INTO geodesic (v, g)
SELECT DISTINCT e.t, CAST(? AS INTEGER)
FROM geodesic AS prev
JOIN edges AS e ON e.s = prev.v
WHERE prev.g = ?
  AND NOT EXISTS (SELECT 1 FROM geodesic AS seen WHERE seen.v = e.t)
"""

#: One geodesic level of Algorithm 2, line 5.  The per-(node, class) segment
#: sum over qualifying parent edges — parents exactly one level below, each
#: edge read once — is a window aggregate (SUM OVER PARTITION BY), the SQL
#: analogue of the per-level parent sum in repro.engine.sbp_plan; the
#: ROW_NUMBER pick keeps one representative row per segment.
SBP_LEVEL_SQL = """
INSERT INTO beliefs (v, c, b)
SELECT v, c, b FROM (
    SELECT cur.v AS v, h.c2 AS c,
           SUM(e.w * p.b * h.h) OVER (PARTITION BY cur.v, h.c2) AS b,
           ROW_NUMBER() OVER (PARTITION BY cur.v, h.c2) AS member
    FROM geodesic AS cur
    JOIN edges AS e ON e.t = cur.v
    JOIN geodesic AS prev ON prev.v = e.s AND prev.g = cur.g - 1
    JOIN beliefs AS p ON p.v = e.s
    JOIN coupling AS h ON h.c1 = p.c
    WHERE cur.g = ?
) AS contributions
WHERE member = 1
"""

#: Fig. 9b's top-belief query as a window rank: the argmax class per node
#: (first class on exact ties, matching np.argmax), skipping all-zero rows.
_TOP_LABELS = """
SELECT v, c FROM (
    SELECT v, c,
           ROW_NUMBER() OVER (PARTITION BY v ORDER BY b DESC, c ASC) AS pick,
           MAX(ABS(b)) OVER (PARTITION BY v) AS magnitude
    FROM beliefs
) AS ranked
WHERE pick = 1 AND magnitude > 0
ORDER BY v
"""

#: The degree of one node, recomputed from its edge rows (ΔSBP edge
#: inserts keep D current for later LinBP runs).
_REFRESH_DEGREE = [
    "DELETE FROM degrees WHERE v = ?",
    "INSERT INTO degrees (v, d) SELECT s, SUM(w * w) FROM edges "
    "WHERE s = ? GROUP BY s",
]


def _scatter(rows: List[Tuple], shape: Tuple[int, ...],
             fill: float = 0.0, dtype=float) -> np.ndarray:
    """Dense array of ``shape`` from ``(index..., value)`` rows."""
    dense = np.full(shape, fill, dtype=dtype)
    if rows:
        table = np.array(rows, dtype=float)
        index = tuple(table[:, axis].astype(np.int64)
                      for axis in range(len(shape)))
        dense[index] = table[:, -1]
    return dense


class SQLiteBackend:
    """The paper's SQL program over the stdlib :mod:`sqlite3` module.

    Runs the same zero-start LinBP semantics as
    :func:`repro.engine.batch.run_batch`, the same single-sweep SBP
    semantics as :func:`repro.engine.sbp_plan.run_sbp_batch` and the same
    ΔSBP repairs as :class:`repro.core.sbp.SBP`, so results — beliefs,
    geodesic numbers, iteration counts, convergence flags — are
    interchangeable with the in-memory engines.

    Parameters
    ----------
    database:
        ``":memory:"`` (default) or a filesystem path.  A path persists the
        graph, beliefs and geodesic numbers: reopening the same path
        restores the loaded state without calling :meth:`load_graph` again,
        and an SBP result reopened that way still takes ΔSBP updates.
    """

    def __init__(self, database: str = ":memory:"):
        self.database = str(database)
        self._connection: Optional[sqlite3.Connection] = None
        self.num_nodes: Optional[int] = None
        self.num_classes: Optional[int] = None
        self.epsilon: Optional[float] = None
        #: Method of the last completed run ("linbp", "linbp*", "sbp"), or
        #: None; persisted in ``meta`` so ΔSBP survives a reopen.
        self.last_run: Optional[str] = None

    def _open(self) -> sqlite3.Connection:
        if sqlite3.sqlite_version_info < _MIN_VERSION:
            raise BackendUnavailableError(
                f"the sqlite backend needs SQLite >= "
                f"{'.'.join(map(str, _MIN_VERSION))} for UPDATE ... FROM; "
                f"this Python links SQLite {sqlite3.sqlite_version}")
        # isolation_level=None disables sqlite3's implicit transaction
        # management so the explicit BEGIN/COMMIT/ROLLBACK of _transaction
        # is the only transaction boundary.
        return sqlite3.connect(self.database, isolation_level=None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "SQLiteBackend":
        """Open the connection (idempotent) and restore persisted metadata."""
        if self._connection is None:
            self._connection = self._open()
            self._restore_meta()
        return self

    def close(self) -> None:
        """Release the connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SQLiteBackend":
        return self.connect()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

    @property
    def is_loaded(self) -> bool:
        """True once a graph has been loaded (or restored from disk)."""
        return self.num_nodes is not None

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _require_loaded(self) -> None:
        if not self.is_loaded:
            raise BackendStateError(
                "backend 'sqlite' has no graph loaded; call "
                "load_graph() (or open a database that already holds one) "
                "before running sweeps or fetching beliefs")

    def _require_sbp_state(self) -> None:
        self._require_loaded()
        if self.last_run != "sbp":
            raise BackendStateError(
                f"backend 'sqlite': incremental SBP updates repair the "
                f"result of run_sbp(), but the last run was "
                f"{self.last_run or 'none'}; call run_sbp() first")

    @staticmethod
    def _check_iteration_args(max_iterations: int, tolerance: float,
                              num_iterations: Optional[int]) -> int:
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if num_iterations is not None and num_iterations < 1:
            raise ValidationError("num_iterations must be >= 1")
        return num_iterations if num_iterations is not None else max_iterations

    # ------------------------------------------------------------------ #
    # low-level execution helpers
    # ------------------------------------------------------------------ #
    def _cursor(self):
        self.connect()
        return self._connection.cursor()

    def _execute(self, sql: str, parameters: Sequence[Any] = ()):
        cursor = self._cursor()
        cursor.execute(sql, tuple(parameters))
        return cursor

    def _scalar(self, sql: str, parameters: Sequence[Any] = ()):
        row = self._execute(sql, parameters).fetchone()
        return None if row is None else row[0]

    @contextmanager
    def _transaction(self):
        """All-or-nothing execution: roll the database back on any error.

        A sweep or repair that fails midway must not leave half-updated
        beliefs behind — the previous consistent state (freshly loaded, or
        the last completed run or update) survives the rollback.
        """
        cursor = self._cursor()
        cursor.execute("BEGIN")
        try:
            yield cursor
        except BaseException:
            self._connection.rollback()
            raise
        self._connection.commit()

    def _table_exists(self, table: str) -> bool:
        try:
            self._execute(f"SELECT 1 FROM {table} LIMIT 1")
        except Exception:
            return False
        return True

    def _restore_meta(self) -> None:
        """Adopt the loaded-graph state persisted in an existing database."""
        if not self._table_exists("meta"):
            return
        values: Dict[str, str] = dict(
            self._execute("SELECT key, value FROM meta").fetchall())
        if "num_nodes" in values and "num_classes" in values:
            self.num_nodes = int(values["num_nodes"])
            self.num_classes = int(values["num_classes"])
            self.epsilon = float(values.get("epsilon", "nan"))
            self.last_run = values.get("last_run") or None

    @staticmethod
    def _record_run(cursor, method: str) -> None:
        cursor.execute("DELETE FROM meta WHERE key = 'last_run'")
        cursor.execute("INSERT INTO meta (key, value) VALUES ('last_run', ?)",
                       (method,))

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load_graph(self, graph: Graph, coupling: CouplingMatrix,
                   explicit_residuals: np.ndarray) -> None:
        """Load an in-memory :class:`Graph` (convenience over load_stream)."""
        explicit = checked_explicit(explicit_residuals, graph.num_nodes,
                                    coupling.num_classes)
        labeled = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
        explicit_rows = ((int(node), int(cls), float(explicit[node, cls]))
                         for node in labeled
                         for cls in range(coupling.num_classes))
        edges = ((edge.source, edge.target, edge.weight)
                 for edge in graph.edges())
        self.load_stream(edges, explicit_rows, coupling, graph.num_nodes)

    def load_stream(self, edges: Iterable[Tuple[int, int, float]],
                    explicit_rows: Iterable[Tuple[int, int, float]],
                    coupling: CouplingMatrix, num_nodes: int) -> None:
        """Stream a graph into the database without materializing it.

        ``edges`` yields undirected ``(source, target, weight)`` triples
        (both directions are stored, like the relation ``A``);
        ``explicit_rows`` yields ``(node, class, residual belief)`` rows for
        the labeled nodes.  Both are consumed in bounded chunks, so graphs
        larger than RAM can be loaded onto a disk-backed database.
        """
        if num_nodes < 0:
            raise ValidationError("num_nodes must be non-negative")
        residual = np.asarray(coupling.residual, dtype=float)
        k = residual.shape[0]
        with self._transaction() as cursor:
            for table in _TABLES:
                cursor.execute(f"DROP TABLE IF EXISTS {table}")
            for index in _INDEXES:
                cursor.execute(f"DROP INDEX IF EXISTS {index}")
            for statement in _CREATE_SCHEMA:
                cursor.execute(statement)
            cursor.execute(_FILL_NODES, (num_nodes, num_nodes))
            cursor.executemany("INSERT INTO classes (c) VALUES (?)",
                               [(c,) for c in range(k)])
            for chunk in _chunks(edges):
                directed = [(int(s), int(t), float(w)) for s, t, w in chunk]
                directed += [(t, s, w) for s, t, w in directed]
                cursor.executemany(
                    "INSERT INTO edges (s, t, w) VALUES (?, ?, ?)", directed)
            for chunk in _chunks(explicit_rows):
                cursor.executemany(
                    "INSERT INTO explicit (v, c, b) VALUES (?, ?, ?)",
                    [(int(v), int(c), float(b)) for v, c, b in chunk])
            cursor.executemany(
                "INSERT INTO coupling (c1, c2, h) VALUES (?, ?, ?)",
                [(i, j, float(residual[i, j]))
                 for i in range(k) for j in range(k)])
            cursor.execute(_FILL_COUPLING_SQ)
            cursor.execute(_FILL_DEGREES)
            for statement in _RESET_BELIEFS:
                cursor.execute(statement)
            cursor.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("num_nodes", str(int(num_nodes))),
                 ("num_classes", str(k)),
                 ("epsilon", repr(float(coupling.epsilon)))])
        self.num_nodes = int(num_nodes)
        self.num_classes = k
        self.epsilon = float(coupling.epsilon)
        self.last_run = None

    # ------------------------------------------------------------------ #
    # LinBP
    # ------------------------------------------------------------------ #
    def run_linbp(self, max_iterations: int = 100, tolerance: float = 1e-10,
                  num_iterations: Optional[int] = None,
                  echo_cancellation: bool = True,
                  materialize: bool = True) -> PropagationResult:
        """Run LinBP (or LinBP*) sweeps inside the database.

        Semantics mirror :func:`repro.engine.batch.run_batch` for a single
        query: beliefs start at zero, every iteration applies Eq. 6 (or
        Eq. 7 without the echo term), and the run stops once the maximum
        belief change drops below ``tolerance`` — or after exactly
        ``num_iterations`` sweeps when that is given.  The whole run is one
        transaction: a failure mid-sweep rolls back to the pre-run state.
        """
        budget = self._check_iteration_args(max_iterations, tolerance,
                                            num_iterations)
        self._require_loaded()
        fixed_iterations = num_iterations is not None
        method = "linbp" if echo_cancellation else "linbp*"
        update_sql = LINBP_UPDATE_SQL if echo_cancellation \
            else LINBP_STAR_UPDATE_SQL
        history: List[float] = []
        iterations = 0
        converged = False
        with self._transaction() as cursor:
            for statement in _RESET_BELIEFS:
                cursor.execute(statement)
            for _ in range(budget):
                iterations += 1
                for statement in _STAGE_PREVIOUS:
                    cursor.execute(statement)
                cursor.execute(update_sql)
                cursor.execute(_MAX_CHANGE)
                row = cursor.fetchone()
                change = float(row[0]) if row and row[0] is not None else 0.0
                history.append(change)
                if not fixed_iterations and change < tolerance:
                    converged = True
                    break
            self._record_run(cursor, method)
        self.last_run = method
        if fixed_iterations:
            converged = bool(history and history[-1] < tolerance)
        beliefs = self.fetch_beliefs() if materialize \
            else np.zeros((0, self.num_classes))
        return PropagationResult(
            beliefs=beliefs,
            method=("LinBP" if echo_cancellation else "LinBP*") + " (sqlite)",
            iterations=iterations,
            converged=converged,
            residual_history=history,
            extra={"engine": "sql-sqlite",
                   "backend": "sqlite",
                   "database": self.database,
                   "echo_cancellation": bool(echo_cancellation),
                   "epsilon": self.epsilon,
                   "materialized": bool(materialize)},
        )

    # ------------------------------------------------------------------ #
    # SBP (Algorithm 2)
    # ------------------------------------------------------------------ #
    def run_sbp(self, materialize: bool = True) -> PropagationResult:
        """Run the single-pass assignment (Algorithm 2) inside the database.

        Level ``i ≥ 1`` is one INSERT of the unvisited neighbours of level
        ``i − 1`` into ``geodesic`` and one window-function INSERT of their
        beliefs, reading only the edges from level ``i − 1`` (every edge
        propagates at most once — the "single pass"); the run stops at the
        first empty level.  Matches
        :func:`repro.engine.sbp_plan.run_sbp_batch`: level-0 nodes keep
        their explicit beliefs, unreachable nodes stay zero.
        """
        self._require_loaded()
        with self._transaction() as cursor:
            for statement in _SBP_SEED:
                cursor.execute(statement)
            level = 0
            while True:
                cursor.execute(_GEODESIC_LEVEL_SQL, (level + 1, level))
                cursor.execute("SELECT COUNT(*) FROM geodesic WHERE g = ?",
                               (level + 1,))
                if not cursor.fetchone()[0]:
                    break
                level += 1
                cursor.execute(SBP_LEVEL_SQL, (level,))
            self._record_run(cursor, "sbp")
        self.last_run = "sbp"
        beliefs = self.fetch_beliefs() if materialize \
            else np.zeros((0, self.num_classes))
        return self._sbp_result(beliefs, self.fetch_geodesic_numbers(),
                                materialized=bool(materialize))

    def _sbp_result(self, beliefs: np.ndarray, geodesic: np.ndarray,
                    **extra: object) -> PropagationResult:
        return PropagationResult(
            beliefs=beliefs,
            method="SBP (sqlite)",
            iterations=max(0, int(geodesic.max())) if geodesic.size else 0,
            converged=True,
            residual_history=[],
            extra={"engine": "sql-sqlite",
                   "backend": "sqlite",
                   "database": self.database,
                   "geodesic_numbers": geodesic,
                   "epsilon": self.epsilon,
                   **extra},
        )

    # ------------------------------------------------------------------ #
    # ΔSBP (Algorithms 3 and 4)
    # ------------------------------------------------------------------ #
    def add_explicit_beliefs(self, new_residuals: np.ndarray
                             ) -> PropagationResult:
        """Algorithm 3: fold new (or changed) explicit beliefs into SBP.

        ``new_residuals`` is an ``n × k`` matrix whose non-zero rows are the
        new explicit beliefs ``E_n``.  The SBP state of the last
        :meth:`run_sbp` is repaired outwards from those nodes, and only the
        repaired ``geodesic``/``beliefs`` rows plus the new ``explicit``
        rows are written back, in one transaction.  ``extra
        ['nodes_updated']`` counts the repaired nodes, as
        :meth:`repro.core.sbp.SBP.add_explicit_beliefs` does.
        """
        self._require_sbp_state()
        nodes, rows = checked_update(new_residuals, self.num_nodes,
                                     self.num_classes)
        graph, geodesic, beliefs, explicit, residual = self._sbp_state()
        if nodes.size == 0:
            return self._sbp_result(beliefs, geodesic, nodes_updated=0)
        stats = repair_explicit_beliefs(graph.adjacency, geodesic, beliefs,
                                        explicit, residual, nodes, rows)
        with self._transaction() as cursor:
            cursor.executemany("DELETE FROM explicit WHERE v = ?",
                               [(int(node),) for node in nodes])
            cursor.executemany(
                "INSERT INTO explicit (v, c, b) VALUES (?, ?, ?)",
                self._rows(nodes, rows))
            self._write_repair(cursor, stats, geodesic, beliefs)
        return self._sbp_result(beliefs, geodesic,
                                nodes_updated=stats.nodes_updated)

    def add_edges(self, new_edges: Iterable[EdgeLike]) -> PropagationResult:
        """Algorithm 4: fold new edges into the SBP result.

        Edges are ``(source, target)`` pairs, ``(source, target, weight)``
        triples or :class:`~repro.graphs.graph.Edge` objects, validated by
        :meth:`Graph.with_edges_added` (weights of an existing pair add
        up) before anything is written.  Geodesic numbers and beliefs are
        repaired outwards from the endpoints whose shortest paths the new
        edges change; the changed ``edges`` rows, the endpoints' ``degrees``
        and the repaired rows are written back in one transaction, so a
        later :meth:`run_linbp` sweeps the grown graph.
        """
        self._require_sbp_state()
        edges = list(new_edges)
        graph, geodesic, beliefs, explicit, residual = self._sbp_state()
        if not edges:
            return self._sbp_result(beliefs, geodesic, nodes_updated=0)
        grown = graph.with_edges_added(edges)
        # The directed pairs whose weight changed (the new edges, both
        # ways), with their weights in the grown graph.
        changed = grown.adjacency.multiply(
            grown.adjacency != graph.adjacency).tocoo()
        if changed.nnz == 0:
            return self._sbp_result(beliefs, geodesic, nodes_updated=0)
        sources = changed.row.astype(np.int64)
        stats = repair_added_edges(grown.adjacency, geodesic, beliefs,
                                   explicit, residual, sources,
                                   changed.col.astype(np.int64))
        pairs = list(zip(sources.tolist(), changed.col.tolist()))
        endpoints = [(node,) for node in np.unique(sources).tolist()]
        with self._transaction() as cursor:
            cursor.executemany("DELETE FROM edges WHERE s = ? AND t = ?",
                               pairs)
            cursor.executemany(
                "INSERT INTO edges (s, t, w) VALUES (?, ?, ?)",
                [(s, t, w) for (s, t), w in zip(pairs, changed.data.tolist())])
            for statement in _REFRESH_DEGREE:
                cursor.executemany(statement, endpoints)
            self._write_repair(cursor, stats, geodesic, beliefs)
        return self._sbp_result(beliefs, geodesic,
                                nodes_updated=stats.nodes_updated)

    def _sbp_state(self) -> Tuple[Graph, np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """The relations ΔSBP repairs, read once into arrays.

        Returns ``(graph, geodesic, beliefs, explicit, residual)``: the
        graph rebuilt from ``edges``, the geodesic numbers, dense beliefs
        and explicit beliefs, and the scaled residual coupling.
        """
        n, k = self.num_nodes, self.num_classes
        rows = self._execute("SELECT s, t, w FROM edges").fetchall()
        table = np.array(rows, dtype=float).reshape(-1, 3)
        adjacency = sp.csr_matrix(
            (table[:, 2], (table[:, 0].astype(np.int64),
                           table[:, 1].astype(np.int64))), shape=(n, n))
        explicit = _scatter(
            self._execute("SELECT v, c, b FROM explicit").fetchall(), (n, k))
        residual = _scatter(
            self._execute("SELECT c1, c2, h FROM coupling").fetchall(), (k, k))
        return (Graph(adjacency, validate=False),
                self.fetch_geodesic_numbers(), self.fetch_beliefs(), explicit,
                residual)

    @staticmethod
    def _rows(nodes: np.ndarray, values: np.ndarray
              ) -> List[Tuple[int, int, float]]:
        """``(node, class, value)`` rows of ``nodes`` and their ``values``."""
        return [(node, klass, value)
                for node, row in zip(nodes.tolist(), values.tolist())
                for klass, value in enumerate(row)]

    def _write_repair(self, cursor, stats: RepairStats, geodesic: np.ndarray,
                      beliefs: np.ndarray) -> None:
        """Rewrite the ``geodesic`` and ``beliefs`` rows of touched nodes.

        A repair only shortens geodesic paths, so every touched node is
        reached and keeps one belief row per class, as after run_sbp.
        """
        touched = stats.touched
        if touched.size == 0:
            return
        keys = [(node,) for node in touched.tolist()]
        cursor.executemany("DELETE FROM geodesic WHERE v = ?", keys)
        cursor.executemany("DELETE FROM beliefs WHERE v = ?", keys)
        cursor.executemany(
            "INSERT INTO geodesic (v, g) VALUES (?, ?)",
            list(zip(touched.tolist(), geodesic[touched].tolist())))
        cursor.executemany("INSERT INTO beliefs (v, c, b) VALUES (?, ?, ?)",
                           self._rows(touched, beliefs[touched]))

    # ------------------------------------------------------------------ #
    # reading results back
    # ------------------------------------------------------------------ #
    def fetch_beliefs(self) -> np.ndarray:
        """The beliefs relation as a dense ``n × k`` matrix (zeros default)."""
        self._require_loaded()
        return _scatter(self._execute("SELECT v, c, b FROM beliefs").fetchall(),
                        (self.num_nodes, self.num_classes))

    def fetch_geodesic_numbers(self) -> np.ndarray:
        """Geodesic numbers per node (−1 for unreached), from the last SBP run."""
        self._require_loaded()
        return _scatter(self._execute("SELECT v, g FROM geodesic").fetchall(),
                        (self.num_nodes,), fill=UNREACHABLE, dtype=np.int64)

    def iter_beliefs(self) -> Iterator[Tuple[int, int, float]]:
        """Stream ``(node, class, belief)`` rows straight off the cursor."""
        self._require_loaded()
        for v, c, b in self._execute("SELECT v, c, b FROM beliefs ORDER BY v, c"):
            yield int(v), int(c), float(b)

    def top_labels(self) -> Iterator[Tuple[int, int]]:
        """Stream ``(node, argmax class)`` pairs without densifying beliefs.

        Nodes whose belief row is entirely zero (unreached, unlabeled) are
        omitted — the streaming analogue of the ``−1`` rows of
        :meth:`repro.core.results.PropagationResult.hard_labels`.
        """
        self._require_loaded()
        for v, c in self._execute(_TOP_LABELS):
            yield int(v), int(c)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def table_counts(self) -> Dict[str, int]:
        """Row counts of every backend table (capability report / debugging)."""
        counts = {}
        for table in _TABLES:
            if self._table_exists(table):
                counts[table] = int(self._scalar(f"SELECT COUNT(*) FROM {table}"))
        return counts
