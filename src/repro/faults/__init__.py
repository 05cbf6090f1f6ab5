"""Fault-injection hooks for the serving stack.

Subsystems call :func:`inject` (raise/exit/sleep at this line if the
active plan says so) or :func:`fires` (just the decision — the call
site stages its own damage, e.g. a torn half-written record) at named
points.  Both are no-ops costing one global load when no plan is
installed, so production paths pay nothing.

Activate a plan with the ``REPRO_FAULTS`` environment variable (parsed
at import), :func:`install`, or the :func:`plan` context manager:

>>> import repro.faults as faults
>>> with faults.plan({"wal.append.fsync": {"once": True}}):
...     ...  # the next fsync in DeltaLog.append raises OSError
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.faults.plan import FaultPlan, FaultRule, InjectedFault, perform

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "fires",
    "inject",
    "install",
    "plan",
]

_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` when fault injection is off."""
    return _PLAN


def install(new_plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``new_plan`` process-wide; returns the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = new_plan
    return previous


@contextmanager
def plan(
    rules: FaultPlan | dict | str, seed: int = 0
) -> Iterator[FaultPlan]:
    """Install a plan for the duration of a ``with`` block (tests)."""
    if isinstance(rules, FaultPlan):
        built = rules
    elif isinstance(rules, str):
        built = FaultPlan.parse(rules)
    else:
        built = FaultPlan(rules, seed=seed)
    previous = install(built)
    try:
        yield built
    finally:
        install(previous)


def inject(point: str, exc_factory: Callable[[], BaseException] | None = None) -> None:
    """Fire the active plan's rule for ``point``, if any.

    ``raise`` rules raise ``exc_factory()`` (or :class:`InjectedFault`),
    ``exit`` rules kill the process like a crashed worker, ``sleep``
    rules stall and return. No-op when no plan is installed or the
    rule doesn't fire on this evaluation.
    """
    if _PLAN is None:
        return
    rule = _PLAN.decide(point)
    if rule is not None:
        perform(rule, point, exc_factory)


def fires(point: str) -> bool:
    """Decision-only hook: did ``point`` fire on this evaluation?

    For faults whose damage the call site must stage itself — e.g. a
    torn write that leaves half a record on disk before failing. The
    rule's action is ignored; the fire is still counted and exported.
    """
    if _PLAN is None:
        return False
    return _PLAN.decide(point) is not None


_spec = os.environ.get("REPRO_FAULTS", "").strip()
if _spec:
    install(FaultPlan.parse(_spec))
del _spec
