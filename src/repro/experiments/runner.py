"""Shared plumbing for the experiment modules.

Every experiment module in :mod:`repro.experiments` produces a
:class:`ResultTable` — a list of homogeneous rows plus helpers to print the
table in the same layout as the corresponding table/figure of the paper.
Keeping the output as plain data (rather than plots) makes the experiments
usable from benchmarks, tests and the command line alike.

:func:`propagate_batch` is the experiments' front door to the batched
engine (:mod:`repro.engine`): timing and throughput studies that issue many
queries against one graph should go through it rather than looping over
:func:`repro.core.linbp.linbp`.  :func:`sbp_from_scratch` starts the ΔSBP
experiments on either engine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["ResultTable", "timed", "propagate_batch", "sbp_from_scratch"]


def timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``function()`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - start
    return result, elapsed


def propagate_batch(graph, coupling, explicit_list: Sequence,
                    echo_cancellation: bool = True, **options) -> List:
    """Propagate many explicit-belief matrices over one graph in one batch.

    Thin convenience wrapper over :func:`repro.engine.batch.run_batch`
    using the cached plan for ``(graph, coupling, echo_cancellation)``.
    ``options`` are forwarded (``max_iterations``, ``tolerance``,
    ``num_iterations``, ``require_convergence``).  Returns one
    :class:`~repro.core.results.PropagationResult` per query, matching
    what sequential :func:`~repro.core.linbp.linbp` calls would produce.
    """
    from repro.engine import get_plan, run_batch

    plan = get_plan(graph, coupling, echo_cancellation=echo_cancellation)
    return run_batch(plan, explicit_list, **options)


@contextmanager
def sbp_from_scratch(engine: str, graph, coupling,
                     explicit) -> Iterator[Tuple[Any, float]]:
    """Run SBP from scratch; yield ``(runner, seconds)``.

    ``engine="relational"`` loads the relations into an in-memory
    :class:`~repro.relational.SQLiteBackend` and runs Algorithm 2 in SQL
    (the load counts toward ``seconds``), closing the database on exit;
    ``"memory"`` runs :class:`~repro.core.sbp.SBP`.  Either runner takes
    ``add_explicit_beliefs`` (Algorithm 3) and ``add_edges`` (Algorithm 4).
    """
    start = time.perf_counter()
    if engine == "relational":
        from repro.relational import SQLiteBackend

        with SQLiteBackend() as runner:
            runner.load_graph(graph, coupling, explicit)
            runner.run_sbp()
            yield runner, time.perf_counter() - start
        return
    from repro.core.sbp import SBP

    runner = SBP(graph, coupling)
    runner.run(explicit)
    yield runner, time.perf_counter() - start


@dataclass
class ResultTable:
    """A titled table of result rows (dictionaries with identical keys).

    The table preserves insertion order of both rows and columns and can be
    rendered as an aligned text table (used by the examples and by the
    benchmark harness to print the reproduced figures next to the measured
    numbers).
    """

    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one row given as keyword arguments."""
        self.rows.append(dict(values))

    @property
    def columns(self) -> List[str]:
        """Column names in first-seen order across all rows."""
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def column(self, name: str) -> List[Any]:
        """All values of one column (``None`` where a row lacks the key)."""
        return [row.get(name) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _format_value(value: Any) -> str:
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    def to_text(self) -> str:
        """Render as an aligned, pipe-separated text table."""
        columns = self.columns
        if not columns:
            return f"{self.title}\n(empty)"
        cells = [[self._format_value(row.get(column, "")) for column in columns]
                 for row in self.rows]
        widths = [max(len(column), *(len(line[i]) for line in cells)) if cells
                  else len(column) for i, column in enumerate(columns)]
        header = " | ".join(column.ljust(width)
                            for column, width in zip(columns, widths))
        separator = "-+-".join("-" * width for width in widths)
        body = "\n".join(" | ".join(value.ljust(width)
                                    for value, width in zip(line, widths))
                         for line in cells)
        return f"{self.title}\n{header}\n{separator}\n{body}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
