"""The query parameter object of the service layer.

:class:`QuerySpec` is the *single* description of "how to solve one
propagation query": method, iteration budget, tolerance, dtype and
precision mode.  One frozen, hashable value object travels through every
layer that used to take a sprawl of keyword arguments —

* :meth:`repro.service.service.PropagationService.query` takes a spec;
* the coalescer's batch key and the result-cache key embed
  :meth:`QuerySpec.solver_params`, so "may these requests share a
  batch?" is a value comparison on specs;
* the wire protocol (:mod:`repro.service.protocol`) builds a spec
  straight from the request object via :meth:`QuerySpec.from_request`,
  so the line protocol and the Python API accept exactly the same
  parameter surface.

Specs are validated on construction (unknown method, bad dtype, bad
precision, non-positive budgets all raise
:class:`~repro.exceptions.ValidationError` immediately), which moves
every parameter error to the edge — by the time a spec reaches the
engines it is known-good.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.engine import backend as array_backend
from repro.engine import precision as engine_precision
from repro.exceptions import ValidationError

__all__ = ["QuerySpec", "METHODS"]

#: Methods the service can route; values are (solver family, echo flag).
METHODS: Dict[str, Tuple[str, bool]] = {
    "linbp": ("linbp", True),
    "linbp*": ("linbp", False),
    "sbp": ("sbp", True),
}


@dataclass(frozen=True)
class QuerySpec:
    """How to solve one propagation query (frozen, hashable, validated).

    Parameters
    ----------
    method:
        ``"linbp"`` (echo-cancelled LinBP, the default), ``"linbp*"``
        (no echo cancellation) or ``"sbp"`` (single-pass).
    max_iterations, tolerance, num_iterations:
        Iterative solver budget; ``num_iterations`` pins an exact sweep
        count (disabling the convergence check).  Ignored by the
        single-pass SBP family except where ``precision="auto"`` reads
        the tolerance for its certificate.
    dtype:
        Kernel element width as a canonical dtype *name* (``"float64"``
        default, ``"float32"``); any numpy dtype-like spells it.
    precision:
        ``"strict"`` runs exactly ``dtype``; ``"auto"`` lets the
        Lemma-8 certificate choose (see :mod:`repro.engine.precision`).
    """

    method: str = "linbp"
    max_iterations: int = 100
    tolerance: float = 1e-10
    num_iterations: Optional[int] = None
    dtype: str = "float64"
    precision: str = "strict"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of "
                f"{sorted(METHODS)}")
        object.__setattr__(self, "precision",
                           engine_precision.validate_precision(self.precision))
        dtype = array_backend.canonical_dtype(
            self.dtype if self.dtype is not None
            else array_backend.DEFAULT_DTYPE)
        object.__setattr__(self, "dtype", dtype.name)
        try:
            max_iterations = int(self.max_iterations)
            tolerance = float(self.tolerance)
            num_iterations = None if self.num_iterations is None \
                else int(self.num_iterations)
        except (TypeError, ValueError) as error:
            raise ValidationError(f"malformed QuerySpec field: {error}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not tolerance > 0.0:
            raise ValidationError("tolerance must be > 0")
        if num_iterations is not None and num_iterations < 1:
            raise ValidationError("num_iterations must be >= 1 (or None)")
        object.__setattr__(self, "max_iterations", max_iterations)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "num_iterations", num_iterations)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def family(self) -> str:
        """Solver family: ``"linbp"`` or ``"sbp"``."""
        return METHODS[self.method][0]

    @property
    def echo(self) -> bool:
        """Whether the LinBP-family solve cancels echo terms."""
        return METHODS[self.method][1]

    @property
    def numpy_dtype(self) -> np.dtype:
        """The spec's dtype as a numpy dtype object."""
        return array_backend.canonical_dtype(self.dtype)

    def solver_params(self) -> Tuple:
        """The batch/result-cache key fragment this spec contributes.

        Two queries may coalesce into one stacked engine call (and share
        cached results) exactly when their snapshot, coupling and
        ``solver_params()`` agree.  Single-pass SBP ignores the
        iterative budget, so those fields must not fragment its batches:
        requests differing only in ``max_iterations``/``tolerance``
        still share a key — except under ``precision="auto"``, whose
        certificate depends on the tolerance.
        """
        if self.family == "sbp":
            return (self.method, self.dtype, self.precision) \
                + ((self.tolerance,) if self.precision == "auto" else ())
        return (self.method, self.dtype, self.precision,
                self.max_iterations, self.tolerance, self.num_iterations)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_request(cls, request: Mapping,
                     defaults: "Optional[QuerySpec]" = None) -> "QuerySpec":
        """Build a spec from a wire-protocol request object.

        Reads exactly the dataclass's field names from ``request``
        (other keys — ``op``, ``graph``, ``beliefs``, ... — are the
        transport's business and ignored here); missing fields keep
        their defaults — the class defaults, or ``defaults``'s field
        values when a base spec is given (how ``repro serve --config``
        applies a tuned artifact's query section to requests that do
        not bring their own settings).  Validation happens in
        ``__post_init__``, so a malformed field raises
        :class:`ValidationError` with the wire error code
        ``validation``.
        """
        kwargs = {} if defaults is None else \
            {field.name: getattr(defaults, field.name) for field in
             fields(cls)}
        kwargs.update(
            {field.name: request[field.name] for field in fields(cls)
             if field.name in request and request[field.name] is not None})
        return cls(**kwargs)
