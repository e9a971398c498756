"""Update notifications emitted by the incremental propagation runners.

The maintained solvers — :class:`repro.core.sbp.SBP` (ΔSBP, Algorithms 3
and 4) and :class:`repro.core.incremental.IncrementalLinBP`
(superposition / warm-start) — mutate state in place.  Layers
stacked on top of them (most importantly the propagation service in
:mod:`repro.service`, which versions graph snapshots) need to know *when*
such a mutation happened so they can bump snapshot ids, invalidate result
caches, or forward the change downstream.

:class:`UpdateNotifier` is a tiny mixin providing ``add_update_hook`` /
``remove_update_hook``; runners call :meth:`UpdateNotifier._notify_update`
after each successful mutation with an :class:`UpdateEvent` describing
what changed.  Hooks run synchronously on the mutating thread, *after*
the runner's state is fully consistent, so a hook may safely read the
runner.  Hook exceptions propagate to the mutating caller (a broken
listener should be loud, not silently detached).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["UpdateEvent", "UpdateNotifier"]


@dataclass(frozen=True)
class UpdateEvent:
    """One successful mutation of a maintained propagation result.

    Attributes
    ----------
    kind:
        ``"run"`` for a from-scratch (re)computation,
        ``"explicit_beliefs"`` for Algorithm-3-style label updates,
        ``"edges"`` for Algorithm-4-style edge insertions.
    method:
        The runner's method name (``"SBP"``, ``"LinBP (incremental)"``,
        ``"SBP (SQL)"``, ...).
    source:
        The runner that mutated; hooks may read its post-update state.
    nodes_updated:
        How many nodes the update touched, when the runner tracks it
        (``None`` for from-scratch runs and warm restarts).
    details:
        Free-form extra payload (e.g. the number of added edges).
    """

    kind: str
    method: str
    source: object
    nodes_updated: Optional[int] = None
    details: Dict[str, object] = field(default_factory=dict)


class UpdateNotifier:
    """Mixin: maintain a hook list and notify it after each mutation.

    The hook list is created lazily on first use, so the mixin composes
    with dataclasses and classes whose ``__init__`` never calls up.
    """

    _update_hooks: List[Callable[[UpdateEvent], None]]

    @property
    def update_hooks(self) -> List[Callable[[UpdateEvent], None]]:
        """The registered hooks (mutable list, in registration order)."""
        hooks = getattr(self, "_update_hooks", None)
        if hooks is None:
            hooks = []
            self._update_hooks = hooks
        return hooks

    def add_update_hook(self, hook: Callable[[UpdateEvent], None]) -> None:
        """Register ``hook`` to run after every successful mutation."""
        self.update_hooks.append(hook)

    def remove_update_hook(self, hook: Callable[[UpdateEvent], None]) -> None:
        """Unregister ``hook`` (no-op when it was never registered)."""
        try:
            self.update_hooks.remove(hook)
        except ValueError:
            pass

    def _notify_update(self, kind: str, method: str,
                       nodes_updated: Optional[int] = None,
                       **details: object) -> None:
        """Call every hook with a fresh :class:`UpdateEvent`."""
        hooks = getattr(self, "_update_hooks", None)
        if not hooks:
            return
        event = UpdateEvent(kind=kind, method=method, source=self,
                            nodes_updated=nodes_updated, details=dict(details))
        for hook in list(hooks):
            hook(event)
