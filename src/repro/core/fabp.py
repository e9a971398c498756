"""Binary-class linearized BP (the FABP special case, Appendix E).

For ``k = 2`` classes, the residual coupling matrix is fully described by one
scalar ``ĥ`` (``Ĥ = [[ĥ, −ĥ], [−ĥ, ĥ]]``) and every belief vector by one scalar
(``b̂ = [b̂, −b̂]``).  Appendix E of the paper shows that the general LinBP
framework then collapses to a single ``n``-dimensional linear system

.. math::

    \\hat b = \\Big(I_n - \\tfrac{2\\hat h}{1-4\\hat h^2}\\,A
              + \\tfrac{4\\hat h^2}{1-4\\hat h^2}\\,D\\Big)^{-1} \\hat e

which is (up to the centering convention) the FABP algorithm of Koutra et
al. [25].  Ignoring the ``1/(1−4ĥ²)`` correction (valid for small ``ĥ``) gives
exactly the k = 2 instance of the LinBP equation system:

.. math::

    \\hat b = (I_n - 2\\hat h A + 4\\hat h^2 D)^{-1} \\hat e

Both closed forms are provided so the equivalence can be tested numerically
against the multi-class implementation in :mod:`repro.core.linbp`.
"""

from __future__ import annotations

from typing import List, Literal, Sequence

import numpy as np

from repro.beliefs.beliefs import checked_explicit
from repro.coupling.matrices import CouplingMatrix
from repro.core.results import PropagationResult
from repro.engine.plan import get_binary_solver
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph

__all__ = ["binary_coupling", "fabp_closed_form", "fabp", "fabp_batch"]


def binary_coupling(h_residual: float, epsilon: float = 1.0,
                    class_names=("positive", "negative")) -> CouplingMatrix:
    """The 2 x 2 residual coupling matrix ``[[ĥ, −ĥ], [−ĥ, ĥ]]``.

    ``h_residual > 0`` encodes homophily, ``h_residual < 0`` heterophily.
    """
    if h_residual == 0.0:
        raise ValidationError("h_residual must be non-zero")
    residual = np.array([[h_residual, -h_residual],
                         [-h_residual, h_residual]])
    return CouplingMatrix.from_residual(residual, epsilon=epsilon,
                                        class_names=class_names)


def _checked_scalars(explicit_scalars, num_nodes: int) -> np.ndarray:
    """The length-``n`` vector ``ê``, checked as an ``n x 1`` ``Ê``.

    A wrong length or a NaN or ±Infinity scalar is the
    :class:`ValidationError` of :func:`~repro.beliefs.checked_explicit`,
    naming the shape or the node.
    """
    return checked_explicit(np.ravel(explicit_scalars)[:, None],
                            num_nodes, 1)[:, 0]


def fabp_closed_form(graph: Graph, h_residual: float,
                     explicit_scalars: np.ndarray,
                     variant: Literal["linbp", "exact"] = "linbp") -> np.ndarray:
    """Solve the binary linear system and return scalar beliefs per node.

    Parameters
    ----------
    graph:
        The undirected network.
    h_residual:
        The scalar residual coupling ``ĥ`` (already scaled by ``ε_H``).
    explicit_scalars:
        Length-``n`` vector ``ê`` of scalar explicit beliefs (positive values
        favour class 0, negative values class 1, zero means unlabeled).  A
        NaN or ±Infinity scalar is a :class:`ValidationError` naming its
        node.
    variant:
        ``"linbp"`` (default) solves ``(I − 2ĥA + 4ĥ²D) b̂ = ê`` — the exact
        k = 2 instance of the LinBP equation system.  ``"exact"`` solves the
        non-simplified version with the ``1/(1 − 4ĥ²)`` correction factors of
        Appendix E (the FABP form).

    The system is solved through the engine's cached sparse LU factorisation
    (:func:`repro.engine.plan.get_binary_solver`): the first call against a
    ``(graph, ĥ, variant)`` triple factorises once, subsequent calls only
    perform the two triangular solves.
    """
    explicit = _checked_scalars(explicit_scalars, graph.num_nodes)
    solve = get_binary_solver(graph, h_residual, variant=variant)
    return np.asarray(solve(explicit)).ravel()


def fabp(graph: Graph, h_residual: float, explicit_scalars: np.ndarray,
         variant: Literal["linbp", "exact"] = "linbp") -> PropagationResult:
    """Binary LinBP wrapped in the common result container.

    The returned beliefs have two columns ``[b̂, −b̂]`` so that downstream
    metrics (top-belief assignment, comparisons with the multi-class solver)
    apply unchanged.
    """
    scalars = fabp_closed_form(graph, h_residual, explicit_scalars, variant=variant)
    beliefs = np.column_stack([scalars, -scalars])
    return PropagationResult(
        beliefs=beliefs,
        method="FABP" if variant == "exact" else "LinBP (binary)",
        iterations=0,
        converged=True,
        residual_history=[],
        extra={"h_residual": h_residual, "variant": variant},
    )


def fabp_batch(graph: Graph, h_residual: float,
               explicit_scalars_list: Sequence[np.ndarray],
               variant: Literal["linbp", "exact"] = "linbp"
               ) -> List[PropagationResult]:
    """Solve many binary queries against one graph with a single factorised solve.

    The binary analogue of :func:`repro.engine.batch.run_batch`: all ``q``
    explicit-scalar vectors are stacked into one ``n x q`` right-hand-side
    matrix and handed to the engine's cached LU factorisation in a single
    multi-RHS triangular solve.  Returns one :class:`PropagationResult` per
    query, identical (to floating-point round-off) to calling :func:`fabp`
    sequentially.
    """
    if len(explicit_scalars_list) == 0:
        return []
    stacked = np.column_stack(
        [_checked_scalars(explicit, graph.num_nodes)
         for explicit in explicit_scalars_list])
    solve = get_binary_solver(graph, h_residual, variant=variant)
    solutions = np.asarray(solve(stacked)).reshape(graph.num_nodes, -1)
    results: List[PropagationResult] = []
    for query in range(solutions.shape[1]):
        scalars = solutions[:, query]
        results.append(PropagationResult(
            beliefs=np.column_stack([scalars, -scalars]),
            method="FABP" if variant == "exact" else "LinBP (binary)",
            iterations=0,
            converged=True,
            residual_history=[],
            extra={"h_residual": h_residual, "variant": variant,
                   "engine": "batch", "batch_size": solutions.shape[1]},
        ))
    return results
