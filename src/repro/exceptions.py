"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The more
specific subclasses distinguish between malformed inputs (shape and value
problems), algorithmic non-convergence, and problems with the SQLite
backend that runs the relational implementations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """An input (graph, coupling matrix, belief matrix, ...) is malformed.

    Raised for shape mismatches, non-symmetric adjacency matrices, coupling
    matrices that are not doubly stochastic, belief rows that do not sum to
    one, negative edge weights, and similar structural problems.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative algorithm failed to converge within its iteration budget.

    Carries the number of iterations performed and the last observed residual
    so callers can report or relax their convergence criteria.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NotConvergentParametersError(ReproError, ValueError):
    """The supplied parameters provably prevent convergence.

    Raised when a caller explicitly asks for the convergence guarantee
    (``require_convergence=True``) but the spectral-radius criterion of the
    paper (Lemma 8) shows the iteration would diverge.
    """


class RelationalError(ReproError):
    """Base class for errors of the relational (SQL) implementations."""


class SchemaError(RelationalError, ValueError):
    """A relational operation referenced a relation or column that does not
    exist."""


class BackendError(RelationalError):
    """Base class for problems with the SQLite execution backend."""


class BackendUnavailableError(BackendError):
    """The linked SQLite library cannot run the SQL program.

    The program needs ``UPDATE ... FROM`` (SQLite ≥ 3.33); the message
    names the linked version instead of failing with a syntax error
    mid-sweep.
    """


class BackendStateError(BackendError, RuntimeError):
    """A backend was used out of order (no graph loaded, connection closed)."""


class DatasetError(ReproError, ValueError):
    """A dataset generator was asked for an impossible configuration."""
