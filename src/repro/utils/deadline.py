"""Per-request deadlines as an ambient contextvar.

The HTTP tier opens a :func:`scope` from ``REPRO_DEADLINE_MS`` (or the
``X-Repro-Deadline-Ms`` header) around the request, which then runs on
that one thread: the session's lane waits for its lock no longer than
:func:`remaining_s`, and long compute loops — the recourse solver above
all, between signatures — call :func:`check` between units of work.
Deadlines are absolute ``time.monotonic()`` instants, so time spent
waiting for the lane counts against the budget, which is what lets the
lane fail queued-but-expired requests fast instead of computing answers
nobody is waiting for.

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


def remaining_s() -> float | None:
    """Seconds left before the ambient deadline; ``None`` if unset."""
    deadline = _DEADLINE.get()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def check(where: str) -> None:
    """Raise :class:`DeadlineExceededError` if the deadline has passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError(f"deadline exceeded ({where})")


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
