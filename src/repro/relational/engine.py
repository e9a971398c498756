"""One-call entry point onto the SQLite backend.

:func:`run_propagation` loads a graph and runs one method there — the path
behind ``repro label --backend sqlite``.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.relational.backends import SQLiteBackend

__all__ = ["run_propagation"]


def run_propagation(graph, coupling, explicit_residuals, method: str = "linbp",
                    database: str = ":memory:",
                    max_iterations: int = 100, tolerance: float = 1e-10,
                    num_iterations=None):
    """Run one relational propagation query on the SQLite backend.

    The one-stop entry point behind ``repro label --backend sqlite``: loads
    the graph into the database (``":memory:"`` or a file path), runs
    ``method`` (``"linbp"``, ``"linbp*"`` or ``"sbp"``) and returns the usual
    :class:`~repro.core.results.PropagationResult`.  All failure modes
    surface as :mod:`repro.exceptions` types: unknown method, a SQLite too
    old for ``UPDATE ... FROM``, and out-of-order use.
    """
    method_key = method.lower()
    if method_key not in ("linbp", "linbp*", "sbp"):
        raise ValidationError(
            f"unknown relational method {method!r}; "
            "expected one of: linbp, linbp*, sbp")
    with SQLiteBackend(database) as runner:
        runner.load_graph(graph, coupling, explicit_residuals)
        if method_key == "sbp":
            return runner.run_sbp()
        return runner.run_linbp(max_iterations=max_iterations,
                                tolerance=tolerance,
                                num_iterations=num_iterations,
                                echo_cancellation=(method_key == "linbp"))
