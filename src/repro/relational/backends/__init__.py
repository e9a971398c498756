"""The SQL execution backend for the relational LinBP/SBP programs.

The paper's claim (Section 5.3) is that linearized belief propagation needs
nothing beyond standard SQL.  :class:`SQLiteBackend` makes the claim
executable over the stdlib :mod:`sqlite3`, which ships with every supported
CPython; a filesystem ``database`` labels graphs larger than RAM.  It raises
:class:`~repro.exceptions.BackendUnavailableError` when the linked SQLite
predates ``UPDATE ... FROM`` (3.33).
"""

from repro.relational.backends.base import SQLiteBackend

__all__ = ["SQLiteBackend"]
