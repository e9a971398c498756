"""The paper's relational LinBP/SBP/ΔSBP programs, run as real SQL.

:class:`~repro.relational.backends.SQLiteBackend` holds the one relational
implementation (Algorithms 1–4 as standard SQL over the stdlib SQLite
engine); :func:`run_propagation` runs one method on it in a single call.
"""

from repro.relational.backends import SQLiteBackend
from repro.relational.engine import run_propagation

__all__ = ["run_propagation", "SQLiteBackend"]
