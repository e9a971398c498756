"""The paper's relational LinBP/SBP/ΔSBP programs, run as real SQL.

:class:`~repro.relational.backends.SQLBackend` holds the one relational
implementation (Algorithms 1–4 as portable SQL); SQLite and DuckDB supply
the connection.  :func:`open_backend` and :func:`run_propagation` are the
entry points.
"""

from repro.relational.backends import (
    DuckDBBackend,
    SQLBackend,
    SQLiteBackend,
    available_backends,
    get_backend,
)
from repro.relational.engine import open_backend, run_propagation

__all__ = [
    "open_backend",
    "run_propagation",
    "SQLBackend",
    "SQLiteBackend",
    "DuckDBBackend",
    "get_backend",
    "available_backends",
]
