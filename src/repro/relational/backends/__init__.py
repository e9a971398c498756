"""SQL execution backends for the relational LinBP/SBP programs.

The paper's claim (Section 5.3) is that linearized belief propagation needs
nothing beyond standard SQL.  This package makes the claim executable on
two engines behind one class, :class:`SQLBackend`:

* ``sqlite`` — :class:`SQLiteBackend`, real SQL over the stdlib
  :mod:`sqlite3`.  Always available on any supported CPython; supports
  disk-backed databases for graphs larger than RAM.
* ``duckdb`` — :class:`DuckDBBackend`, the same SQL program over the
  optional DuckDB columnar engine; selected only when the package is
  installed, reported (not crashed on) when it is not.

:func:`get_backend` is the single entry point; it raises
:class:`~repro.exceptions.UnknownBackendError` for typos and
:class:`~repro.exceptions.BackendUnavailableError` (an ``ImportError``)
when a known backend's driver is missing.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.exceptions import UnknownBackendError
from repro.relational.backends.base import SQLBackend
from repro.relational.backends.duckdb_backend import DuckDBBackend
from repro.relational.backends.sqlite_backend import SQLiteBackend

__all__ = [
    "SQLBackend",
    "SQLiteBackend",
    "DuckDBBackend",
    "BACKENDS",
    "get_backend",
    "available_backends",
    "backend_info",
]

#: Registry of every known backend, in preference order.
BACKENDS: Dict[str, Type[SQLBackend]] = {
    "sqlite": SQLiteBackend,
    "duckdb": DuckDBBackend,
}


def get_backend(name: str, database: str = ":memory:") -> SQLBackend:
    """Instantiate the backend registered under ``name``.

    Raises :class:`UnknownBackendError` for names outside the registry (the
    message lists the valid ones) and — on :meth:`connect` / first use —
    :class:`~repro.exceptions.BackendUnavailableError` when the backend
    exists but its driver is not installed.
    """
    try:
        backend_class = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: {known}") from None
    return backend_class(database=database)


def available_backends() -> List[str]:
    """Names of the backends usable right now, in registry order."""
    return [name for name, backend_class in BACKENDS.items()
            if backend_class.is_available()]


def backend_info() -> List[Dict[str, object]]:
    """Capability report for every registered backend (``repro sql-info``)."""
    return [{"name": name,
             "available": bool(backend_class.is_available()),
             "engine": backend_class.engine_version()}
            for name, backend_class in BACKENDS.items()]
