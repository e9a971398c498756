"""One-call entry points onto the SQL execution backends.

:func:`open_backend` picks where the paper's relational programs run, and
:func:`run_propagation` loads a graph and runs one method there — the path
behind ``repro label --backend``.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.relational.backends import SQLBackend, get_backend

__all__ = ["open_backend", "run_propagation"]


def open_backend(backend: str = "sqlite",
                 database: str = ":memory:") -> SQLBackend:
    """Open an execution backend for the relational LinBP/SBP programs.

    ``backend`` selects the SQL engine: ``"sqlite"`` (the stdlib engine,
    optionally disk-backed via ``database``) or ``"duckdb"`` (the optional
    columnar engine).  Unknown names raise
    :class:`~repro.exceptions.UnknownBackendError`; a known backend whose
    driver is missing raises
    :class:`~repro.exceptions.BackendUnavailableError` — never a bare
    ``KeyError`` or ``ModuleNotFoundError``.
    """
    return get_backend(backend, database=database)


def run_propagation(graph, coupling, explicit_residuals, method: str = "linbp",
                    backend: str = "sqlite", database: str = ":memory:",
                    max_iterations: int = 100, tolerance: float = 1e-10,
                    num_iterations=None):
    """Run one relational propagation query on the chosen execution backend.

    The one-stop entry point behind ``repro label --backend``: loads the
    graph into the backend, runs ``method`` (``"linbp"``, ``"linbp*"`` or
    ``"sbp"``) and returns the usual
    :class:`~repro.core.results.PropagationResult`.  All failure modes
    surface as :mod:`repro.exceptions` types: unknown backend or method,
    unavailable driver, and out-of-order use.
    """
    method_key = method.lower()
    if method_key not in ("linbp", "linbp*", "sbp"):
        raise ValidationError(
            f"unknown relational method {method!r}; "
            "expected one of: linbp, linbp*, sbp")
    with open_backend(backend, database=database) as runner:
        runner.load_graph(graph, coupling, explicit_residuals)
        if method_key == "sbp":
            return runner.run_sbp()
        return runner.run_linbp(max_iterations=max_iterations,
                                tolerance=tolerance,
                                num_iterations=num_iterations,
                                echo_cancellation=(method_key == "linbp"))
