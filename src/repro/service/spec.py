"""The query parameter object of the service layer.

:class:`QuerySpec` is the *single* description of "how to solve one
propagation query": method, iteration budget and tolerance.  One frozen,
hashable value object travels through every layer that used to take a
sprawl of keyword arguments —

* :meth:`repro.service.service.PropagationService.query` takes a spec;
* the coalescer's batch key and the result-cache key embed
  :meth:`QuerySpec.solver_params`, so "may these requests share a
  batch?" is a value comparison on specs;
* the wire protocol (:mod:`repro.service.protocol`) builds a spec
  straight from the request object via :meth:`QuerySpec.from_request`,
  so the line protocol and the Python API accept exactly the same
  parameter surface.

Every query is solved in float64.  Specs are validated on construction
(unknown method, non-finite tolerance, non-integral or non-positive
budgets all raise :class:`~repro.exceptions.ValidationError`
immediately), which moves every parameter error to the edge — by the
time a spec reaches the engines it is known-good.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["QuerySpec", "METHODS", "RETIRED_FIELDS", "whole_number"]

#: Methods the service can route; values are (solver family, echo flag).
METHODS: Dict[str, Tuple[str, bool]] = {
    "linbp": ("linbp", True),
    "linbp*": ("linbp", False),
    "sbp": ("sbp", True),
}

#: Request fields refused by name: every query runs in float64, and
#: answering with such a field ignored would drop the client's flag
#: silently.
RETIRED_FIELDS = ("dtype", "precision")


def whole_number(name: str, value: object) -> int:
    """``value`` as an ``int``, or :class:`ValidationError` naming ``name``.

    Accepts integers, integral floats (``2.0``) and numeric strings
    (``"50"``); refuses booleans, fractions (``2.7``), non-finite
    numbers and anything else, instead of truncating or coercing them.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        pass
    try:
        if isinstance(value, str):
            return int(value)
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a whole number, got {value!r}") from None
    if not number.is_integer():
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class QuerySpec:
    """How to solve one propagation query (frozen, hashable, validated).

    Parameters
    ----------
    method:
        ``"linbp"`` (echo-cancelled LinBP, the default), ``"linbp*"``
        (no echo cancellation) or ``"sbp"`` (single-pass).
    max_iterations, tolerance, num_iterations:
        Iterative solver budget; ``num_iterations`` pins an exact count
        of Eq. 6 Jacobi sweeps (disabling the convergence check).
        Otherwise the engine picks Jacobi sweeps (stop: max belief change
        below ``tolerance``) or, near the Lemma 8 limit, conjugate
        gradients (stop: certified error bound below ``tolerance``;
        ``max_iterations`` then caps CG steps) — see
        :func:`repro.engine.batch.run_batch`.  Ignored by the
        single-pass SBP family.
    """

    method: str = "linbp"
    max_iterations: int = 100
    tolerance: float = 1e-10
    num_iterations: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of "
                f"{sorted(METHODS)}")
        max_iterations = whole_number("max_iterations", self.max_iterations)
        num_iterations = None if self.num_iterations is None \
            else whole_number("num_iterations", self.num_iterations)
        if isinstance(self.tolerance, (bool, np.bool_)):
            raise ValidationError(
                f"tolerance must be a number, got {self.tolerance!r}")
        try:
            tolerance = float(self.tolerance)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValidationError(f"malformed QuerySpec field: {error}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (tolerance > 0.0 and math.isfinite(tolerance)):
            raise ValidationError(
                f"tolerance must be finite and > 0, got {tolerance!r}")
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

    def solver_params(self) -> Tuple:
        """The batch/result-cache key fragment this spec contributes.

        Two queries may coalesce into one stacked engine call (and share
        cached results) exactly when their snapshot, coupling and
        ``solver_params()`` agree.  Single-pass SBP ignores the
        iterative budget, so those fields must not fragment its batches:
        requests differing only in ``max_iterations``/``tolerance``
        still share a key.
        """
        if self.family == "sbp":
            return (self.method,)
        return (self.method, self.max_iterations, self.tolerance,
                self.num_iterations)

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
        not bring their own settings).  A request carrying one of
        :data:`RETIRED_FIELDS` is refused.  Validation happens in
        ``__post_init__``, so a malformed field raises
        :class:`ValidationError` with the wire error code
        ``validation``.
        """
        for name in RETIRED_FIELDS:
            if name in request:
                raise ValidationError(
                    f"query field {name!r} is no longer accepted: every "
                    "query runs in float64")
        kwargs = {} if defaults is None else \
            {field.name: getattr(defaults, field.name) for field in
             fields(cls)}
        kwargs.update(
            {field.name: request[field.name] for field in fields(cls)
             if field.name in request and request[field.name] is not None})
        return cls(**kwargs)
