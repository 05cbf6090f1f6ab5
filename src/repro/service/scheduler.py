"""The session's dispatch lane: one request at a time, on its caller's thread.

An answer is a pure function of the engine's count tensors, so the only
job left to the serving layer is to keep engine access serial.
:class:`MicroBatcher` does it with one lock: :meth:`~MicroBatcher.run`
waits for the lane on the caller's own thread, runs that one request's
handler, and releases the lane.  There is no dispatch thread, no queue
and no coalescing: embedded callers and HTTP handler threads share this
one mode, and the spans a request records (``queue_wait``, ``compute``
and whatever the handler opens) land in the caller's own trace.

The wait is bounded twice: at most ``max_queue`` callers may wait (the
next one is shed with :class:`OverloadedError`, which the server turns
into 429 + ``Retry-After``), and no caller waits past its request
deadline (:class:`DeadlineExceededError`, 504).

Handlers are plain ``handler(payload) -> result`` callables registered
per request kind, so the lane is testable without a model and optional
subsystems (the monitor set) can route their work through it.  The
class keeps its historic name: perfbench's span recorder wraps
``MicroBatcher.run`` and the ``repro_batcher_*`` metrics keep theirs.

Lock order: the lane is innermost.  A caller may hold its own locks (a
durable session's update lock) while it waits for the lane, so code that
holds the lane never takes such a lock and never calls :meth:`run` again.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Mapping

from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DeadlineExceededError, OverloadedError

#: default bound on callers waiting for the lane when the caller doesn't
#: pass ``max_queue``; 0 or negative disables the bound.
DEFAULT_MAX_QUEUE = 1024

# Per-kind instruments are created lazily at first dispatch; declare the
# families up front so /metrics advertises them from the first scrape.
_obs.get_registry().declare(
    "repro_batcher_queue_wait_seconds",
    "histogram",
    "Time a request waited for the session's dispatch lane.",
)
_obs.get_registry().declare(
    "repro_batcher_compute_seconds",
    "histogram",
    "Handler wall time for one dispatched request.",
)
_obs.get_registry().declare(
    "repro_batcher_requests_total",
    "counter",
    "Requests served through the dispatch lane.",
)
_BATCHES_TOTAL = _obs.get_registry().counter(
    "repro_batcher_batches_total",
    "Handler calls executed on the dispatch lane (one per request).",
)
_SHED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_shed_total",
    "Requests rejected because max_queue callers already waited.",
)
_EXPIRED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_expired_total",
    "Requests failed fast because their deadline passed while queued.",
)

#: per-kind instrument cache: label formatting + registry lookup happen
#: once per kind, not once per request (GIL-atomic dict ops; a racing
#: double-create resolves to the same registry instrument anyway).
_KIND_INSTRUMENTS: dict[str, tuple] = {}


def _kind_instruments(kind: str) -> tuple:
    cached = _KIND_INSTRUMENTS.get(kind)
    if cached is None:
        registry = _obs.get_registry()
        labels = {"kind": kind}
        cached = (
            registry.histogram(
                "repro_batcher_queue_wait_seconds", labels=labels
            ),
            registry.histogram(
                "repro_batcher_compute_seconds", labels=labels
            ),
            registry.counter("repro_batcher_requests_total", labels=labels),
        )
        _KIND_INSTRUMENTS[kind] = cached
    return cached


class MicroBatcher:
    """Serialises handler calls behind one lock, each on its caller's thread.

    Parameters
    ----------
    handlers:
        ``{kind: handler}`` where ``handler(payload) -> result`` answers
        one request.
    max_queue:
        Bound on callers waiting for the lane; one more is refused with
        :class:`OverloadedError` without waiting.  Shedding at the door
        keeps latency bounded under overload: an unbounded wait accepts
        work it can only serve long after every client gave up.
        ``None`` reads ``REPRO_MAX_QUEUE`` (default 1024); 0 or negative
        disables the bound.
    """

    def __init__(
        self,
        handlers: Mapping[str, Callable[[Any], Any]],
        max_queue: int | None = None,
    ):
        if max_queue is None:
            max_queue = int(os.environ.get("REPRO_MAX_QUEUE", DEFAULT_MAX_QUEUE))
        self._handlers = dict(handlers)
        self._max_queue = int(max_queue)
        #: held while a handler runs: the lane itself
        self._lane = threading.Lock()
        #: guards the handler table and the counters below
        self._lock = threading.Lock()
        self._waiting = 0
        self._requests = 0
        self._shed = 0
        self._expired = 0

    def register(self, kind: str, handler: Callable[[Any], Any]) -> None:
        """Register (or replace) a handler after construction.

        Lets optional subsystems — e.g. the monitor set — route their
        work through the session's lane without the session having to
        know about them at construction time.
        """
        with self._lock:
            self._handlers[kind] = handler

    def run(self, kind: str, payload: Any) -> Any:
        """Wait for the lane, run ``kind``'s handler on ``payload``, return.

        Raises ``KeyError`` for an unknown kind, :class:`OverloadedError`
        when ``max_queue`` callers already wait, and
        :class:`DeadlineExceededError` when the ambient deadline passes
        before the lane frees up.  A handler's exception reaches only
        its own caller; the lane is released either way.
        """
        handler = self._handlers.get(kind)
        if handler is None:
            raise KeyError(
                f"no handler for request kind {kind!r}; "
                f"registered: {sorted(self._handlers)}"
            )
        tags = {"kind": kind}
        started = time.perf_counter()
        with _tracing.span("queue_wait", tags):
            self._enter(kind)
        entered = time.perf_counter()
        try:
            with _tracing.span("compute", tags):
                return handler(payload)
        finally:
            finished = time.perf_counter()
            self._lane.release()
            with self._lock:
                self._requests += 1
            if _obs.enabled():
                wait, compute, requests = _kind_instruments(kind)
                wait.observe(entered - started)
                compute.observe(finished - entered)
                requests.inc()
                _BATCHES_TOTAL.inc()

    def _enter(self, kind: str) -> None:
        """Take the lane, or raise having counted the shed or expiry."""
        with self._lock:
            shed = 0 < self._max_queue <= self._waiting
            if shed:
                self._shed += 1
            else:
                self._waiting += 1
        if shed:
            if _obs.enabled():
                _SHED_TOTAL.inc()
            raise OverloadedError(
                f"request queue full ({self._max_queue} waiting); retry later"
            )
        try:
            remaining = _deadline.remaining_s()
            if remaining is None:
                entered = self._lane.acquire()
            else:
                entered = remaining > 0 and self._lane.acquire(
                    timeout=min(remaining, threading.TIMEOUT_MAX)
                )
        finally:
            with self._lock:
                self._waiting -= 1
        if not entered:
            with self._lock:
                self._expired += 1
            if _obs.enabled():
                _EXPIRED_TOTAL.inc()
            raise DeadlineExceededError(
                f"deadline expired while queued (kind {kind!r})"
            )

    def stats(self) -> dict:
        """Lane counters; ``queue_depth`` counts callers waiting now."""
        with self._lock:
            return {
                "requests": self._requests,
                "max_queue": self._max_queue,
                "queue_depth": self._waiting,
                "shed": self._shed,
                "expired": self._expired,
            }
