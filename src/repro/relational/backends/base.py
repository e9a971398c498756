"""Backend interface plus the shared SQL program for real database engines.

The paper's headline systems claim (Section 5.3, Section 6.3) is that LinBP
and SBP need nothing beyond standard SQL: joins, GROUP BY aggregates, and a
client loop.  :class:`PropagationBackend` is the engine-neutral interface —
``connect`` / ``load_graph`` / ``run_linbp`` / ``run_sbp`` /
``fetch_beliefs`` — and :class:`SQLBackend` is its generic DB-API driver:
every query the sweeps need is plain portable SQL, so the concrete SQLite
and DuckDB backends only supply a connection and a version string.

The compiled SQL program per algorithm:

* **LinBP** (Algorithm 1, zero-start semantics of
  :func:`repro.engine.batch.run_batch`) — one ``UPDATE beliefs ... FROM``
  per iteration whose source is the UNION ALL of the explicit beliefs, the
  neighbour join-aggregate ``A ⋈ B ⋈ Ĥ`` and (for LinBP, not LinBP*) the
  negated echo term ``D ⋈ B ⋈ Ĥ²``, grouped on ``(v, c)``.  The stopping
  test ``MAX(ABS(b − b_prev))`` also runs in SQL, so convergence is decided
  without shipping beliefs to Python.
* **SBP** (Algorithm 2) — geodesic numbers via a recursive CTE (breadth
  bounded by ``n``, then ``MIN(g) GROUP BY v``), followed by one INSERT per
  level whose per-node segment sums are window functions
  (``SUM(...) OVER (PARTITION BY target, class)`` — the SQL analogue of the
  per-level parent sum in :mod:`repro.engine.sbp_plan`).

Beliefs live in the database for the whole run: with ``materialize=False``
(and :meth:`top_labels`, which ranks beliefs with a window function) a graph
streamed onto disk is labeled without ever building the dense ``n × k``
belief matrix in Python — the out-of-core path the ROADMAP asks for.
"""

from __future__ import annotations

import abc
import itertools
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import PropagationResult
from repro.coupling.matrices import CouplingMatrix
from repro.exceptions import BackendStateError, ValidationError
from repro.graphs.graph import Graph

__all__ = ["PropagationBackend", "SQLBackend", "INSERT_CHUNK_ROWS"]

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


class PropagationBackend(abc.ABC):
    """Engine-neutral execution backend for the relational LinBP/SBP programs.

    Concrete backends: the pure-Python :class:`~repro.relational.backends.
    python_backend.PythonTableBackend` (the paper's algorithms over the
    in-memory :class:`~repro.relational.table.Table` operators) and the real
    database :class:`SQLBackend` subclasses.  All of them implement the same
    zero-start LinBP semantics as :func:`repro.engine.batch.run_batch` and
    the same single-sweep SBP semantics as
    :func:`repro.engine.sbp_plan.run_sbp_batch`, so results — beliefs,
    iteration counts, convergence flags — are interchangeable across
    backends and with the in-memory engines.
    """

    #: Registry name ("python", "sqlite", "duckdb").
    name: str = "?"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can actually run in the current environment."""
        return True

    @classmethod
    def engine_version(cls) -> str:
        """Human-readable version of the underlying engine."""
        return "unknown"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "PropagationBackend":
        """Open the backend (no-op for in-memory backends); returns self."""
        return self

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "PropagationBackend":
        return self.connect()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # data loading and execution
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def load_graph(self, graph: Graph, coupling: CouplingMatrix,
                   explicit_residuals: np.ndarray) -> None:
        """Load a graph, coupling and explicit beliefs, replacing any state."""

    @abc.abstractmethod
    def run_linbp(self, max_iterations: int = 100, tolerance: float = 1e-10,
                  num_iterations: Optional[int] = None,
                  echo_cancellation: bool = True,
                  materialize: bool = True) -> PropagationResult:
        """Run LinBP sweeps to convergence (``run_batch`` semantics)."""

    @abc.abstractmethod
    def run_sbp(self, materialize: bool = True) -> PropagationResult:
        """Run the single-pass assignment (``run_sbp_batch`` semantics)."""

    @abc.abstractmethod
    def fetch_beliefs(self) -> np.ndarray:
        """The current beliefs as a dense ``n × k`` matrix."""

    @abc.abstractmethod
    def top_labels(self) -> Iterator[Tuple[int, int]]:
        """Stream ``(node, argmax class)`` pairs without densifying beliefs.

        Nodes whose belief row is entirely zero (unreached, unlabeled) are
        omitted — the streaming analogue of the ``−1`` rows of
        :meth:`repro.core.results.PropagationResult.hard_labels`.
        """

    # ------------------------------------------------------------------ #
    # shared validation
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def is_loaded(self) -> bool:
        """True once a graph has been loaded (or restored from disk)."""

    def _require_loaded(self) -> None:
        if not self.is_loaded:
            raise BackendStateError(
                f"backend {self.name!r} has no graph loaded; call "
                "load_graph() (or open a database that already holds one) "
                "before running sweeps or fetching beliefs")

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


# ---------------------------------------------------------------------- #
# the shared SQL program
# ---------------------------------------------------------------------- #
# Section 5.3's relations: edges == A(s,t,w) (both directions), explicit ==
# E(v,c,b), coupling == H(c1,c2,h) holding the *scaled* residual coupling,
# plus the derived degrees == D(v,d) and coupling_sq == H2.  ``beliefs`` /
# ``beliefs_prev`` are the ping-pong pair of the iteration, dense over
# nodes x classes exactly like the engine's buffers.
_TABLES = ("meta", "nodes", "classes", "edges", "explicit", "coupling",
           "coupling_sq", "degrees", "beliefs", "beliefs_prev", "geodesic")

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
]

#: 0..n-1 without client-side row generation (works in SQLite and DuckDB).
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

#: Geodesic numbers as a recursive CTE: breadth-first walks from the labeled
#: seeds, deduplicated per (node, depth) by UNION and bounded by n (every
#: true geodesic number is < n), then collapsed to the minimum depth.  This
#: is Lemma 17's level partition computed entirely inside the database.
_GEODESIC_CTE = """
INSERT INTO geodesic (v, g)
WITH RECURSIVE walk(v, g) AS (
    SELECT DISTINCT v, 0 FROM explicit
    UNION
    SELECT e.t, walk.g + 1
    FROM walk JOIN edges AS e ON e.s = walk.v
    WHERE walk.g + 1 < ?
)
SELECT v, MIN(g) FROM walk GROUP BY v
"""

#: Level 0 of Algorithm 2: labeled nodes take their explicit beliefs.
_SBP_SEED = [
    "DELETE FROM beliefs",
    "INSERT INTO beliefs (v, c, b) SELECT v, c, b FROM explicit",
]

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


class SQLBackend(PropagationBackend):
    """Generic DB-API 2.0 driver for the shared SQL program.

    Subclasses provide :meth:`_open` (a new connection in autocommit mode —
    the driver manages transactions explicitly with BEGIN/COMMIT/ROLLBACK)
    and :meth:`engine_version`.  Everything else — schema, loading, the
    LinBP/SBP sweeps, convergence, label extraction — is portable SQL
    shared by SQLite and DuckDB.

    Parameters
    ----------
    database:
        ``":memory:"`` (default) or a filesystem path.  A path persists the
        graph and beliefs: reopening the same path restores the loaded
        state without calling :meth:`load_graph` again.
    """

    def __init__(self, database: str = ":memory:"):
        self.database = str(database)
        self._connection = None
        self.num_nodes: Optional[int] = None
        self.num_classes: Optional[int] = None
        self.epsilon: Optional[float] = None

    # ------------------------------------------------------------------ #
    # dialect hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _open(self):
        """Open and return a DB-API connection in autocommit mode."""

    @classmethod
    @abc.abstractmethod
    def engine_version(cls) -> str:
        """Human-readable version of the underlying engine."""

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "SQLBackend":
        """Open the connection (idempotent) and restore persisted metadata."""
        if self._connection is None:
            self._connection = self._open()
            self._restore_meta()
        return self

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    @property
    def is_loaded(self) -> bool:
        return self.num_nodes is not None

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

        A sweep that fails mid-iteration must not leave half-updated
        beliefs behind — the previous consistent state (freshly loaded, or
        the last completed run) survives the rollback.
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

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load_graph(self, graph: Graph, coupling: CouplingMatrix,
                   explicit_residuals: np.ndarray) -> None:
        """Load an in-memory :class:`Graph` (convenience over load_stream)."""
        explicit = np.asarray(explicit_residuals, dtype=float)
        if explicit.shape != (graph.num_nodes, coupling.num_classes):
            raise ValidationError(
                f"explicit beliefs must be "
                f"{graph.num_nodes} x {coupling.num_classes}, "
                f"got {explicit.shape}")
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
            cursor.execute("DROP INDEX IF EXISTS idx_edges_s")
            cursor.execute("DROP INDEX IF EXISTS idx_edges_t")
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
        if fixed_iterations:
            converged = bool(history and history[-1] < tolerance)
        beliefs = self.fetch_beliefs() if materialize \
            else np.zeros((0, self.num_classes))
        return PropagationResult(
            beliefs=beliefs,
            method=("LinBP" if echo_cancellation else "LinBP*")
                   + f" ({self.name})",
            iterations=iterations,
            converged=converged,
            residual_history=history,
            extra={"engine": f"sql-{self.name}",
                   "backend": self.name,
                   "database": self.database,
                   "echo_cancellation": bool(echo_cancellation),
                   "epsilon": self.epsilon,
                   "materialized": bool(materialize)},
        )

    # ------------------------------------------------------------------ #
    # SBP
    # ------------------------------------------------------------------ #
    def run_sbp(self, materialize: bool = True) -> PropagationResult:
        """Run the single-pass assignment (Algorithm 2) inside the database.

        Geodesic numbers come from the recursive CTE; each level ``g ≥ 1``
        is one window-function INSERT reading only the edges from level
        ``g − 1`` (every edge propagates at most once — the "single pass").
        Matches :func:`repro.engine.sbp_plan.run_sbp_batch`: level-0 nodes
        keep their explicit beliefs, unreachable nodes stay zero.
        """
        self._require_loaded()
        with self._transaction() as cursor:
            cursor.execute("DELETE FROM geodesic")
            cursor.execute(_GEODESIC_CTE, (max(self.num_nodes, 1),))
            for statement in _SBP_SEED:
                cursor.execute(statement)
            cursor.execute("SELECT MAX(g) FROM geodesic")
            row = cursor.fetchone()
            max_level = int(row[0]) if row and row[0] is not None else -1
            for level in range(1, max_level + 1):
                cursor.execute(SBP_LEVEL_SQL, (level,))
        beliefs = self.fetch_beliefs() if materialize \
            else np.zeros((0, self.num_classes))
        return PropagationResult(
            beliefs=beliefs,
            method=f"SBP ({self.name})",
            iterations=max(0, max_level),
            converged=True,
            residual_history=[],
            extra={"engine": f"sql-{self.name}",
                   "backend": self.name,
                   "database": self.database,
                   "geodesic_numbers": self.fetch_geodesic_numbers(),
                   "epsilon": self.epsilon,
                   "materialized": bool(materialize)},
        )

    # ------------------------------------------------------------------ #
    # reading results back
    # ------------------------------------------------------------------ #
    def fetch_beliefs(self) -> np.ndarray:
        """The beliefs relation as a dense ``n × k`` matrix (zeros default)."""
        self._require_loaded()
        matrix = np.zeros((self.num_nodes, self.num_classes))
        cursor = self._execute("SELECT v, c, b FROM beliefs")
        for v, c, b in cursor:
            matrix[v, c] = b
        return matrix

    def fetch_geodesic_numbers(self) -> np.ndarray:
        """Geodesic numbers per node (−1 for unreached), from the last SBP run."""
        self._require_loaded()
        numbers = np.full(self.num_nodes, -1, dtype=np.int64)
        for v, g in self._execute("SELECT v, g FROM geodesic"):
            numbers[v] = g
        return numbers

    def iter_beliefs(self) -> Iterator[Tuple[int, int, float]]:
        """Stream ``(node, class, belief)`` rows straight off the cursor."""
        self._require_loaded()
        for v, c, b in self._execute("SELECT v, c, b FROM beliefs ORDER BY v, c"):
            yield int(v), int(c), float(b)

    def top_labels(self) -> Iterator[Tuple[int, int]]:
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
