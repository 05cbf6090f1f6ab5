"""Per-request deadlines as an ambient contextvar.

The HTTP tier opens a :func:`scope` from ``REPRO_DEADLINE_MS`` (or the
``X-Repro-Deadline-Ms`` header), the micro-batcher carries the value
across its dispatch thread (:func:`attach`/:func:`restore`), and long
compute loops — the recourse solver above all, between signatures —
call :func:`check` between units of work.  Deadlines are absolute
``time.monotonic()`` instants, so they survive queueing: time spent
waiting in the batcher counts against the budget, which is what lets
the dispatcher fail queued-but-expired requests fast instead of
computing answers nobody is waiting for.

``None`` everywhere means "no deadline" and costs one contextvar read.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Iterator

from repro.utils.exceptions import DeadlineExceededError

_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current() -> float | None:
    """The ambient absolute deadline (``time.monotonic()`` instant)."""
    return _DEADLINE.get()


def remaining_s() -> float | None:
    """Seconds left before the ambient deadline; ``None`` if unset."""
    deadline = _DEADLINE.get()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def expired() -> bool:
    deadline = _DEADLINE.get()
    return deadline is not None and time.monotonic() >= deadline


def check(where: str) -> None:
    """Raise :class:`DeadlineExceededError` if the deadline has passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError(f"deadline exceeded ({where})")


def attach(deadline: float | None) -> contextvars.Token:
    """Set an absolute deadline in this context; pair with :func:`restore`."""
    return _DEADLINE.set(deadline)


def restore(token: contextvars.Token) -> None:
    _DEADLINE.reset(token)


@contextlib.contextmanager
def scope(budget_ms: float | None) -> Iterator[float | None]:
    """Run the block under a deadline ``budget_ms`` from now.

    ``None`` installs no deadline (the block still sees any outer one).
    """
    if budget_ms is None:
        yield _DEADLINE.get()
        return
    deadline = time.monotonic() + float(budget_ms) / 1000.0
    outer = _DEADLINE.get()
    if outer is not None:
        deadline = min(deadline, outer)  # never extend an enclosing budget
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)
