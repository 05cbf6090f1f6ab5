"""Group-commit request dispatcher for the explanation service.

Under concurrent traffic, many in-flight requests reduce to the same
vectorized engine primitives: N score requests sharing a context are one
``ScoreEstimator.scores_batch`` call, and a burst of local explanations
shares the lazily fitted per-attribute regression models.
:class:`MicroBatcher` exploits this without a timer: callers submit
``(kind, payload)`` work items and block on a future; a single dispatch
thread blocks for the first item, takes whatever else queued while the
lane was busy (up to :data:`MAX_BATCH`), and hands each kind's batch to
its registered handler in one call.  An idle lane dispatches a lone
request at once; a busy one batches exactly the requests that waited
for it.

The batcher is deliberately generic — handlers are plain
``handler(payloads: list) -> list`` callables registered by the session
— so it is testable without a model and reusable for new request kinds.
``flush()`` drains synchronously for deterministic single-threaded use
(the batcher never *requires* its background thread).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Mapping

from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DeadlineExceededError, OverloadedError

#: queue item: (kind, payload, future, enqueued_perf, trace context,
#: absolute monotonic deadline or None).
_Item = tuple[str, Any, Future, float, "dict | None", "float | None"]

#: default bound on queued-but-undispatched requests when the caller
#: doesn't pass ``max_queue``; 0 or negative disables the bound.
DEFAULT_MAX_QUEUE = 1024

#: largest number of requests taken into one dispatch round
MAX_BATCH = 64

# Per-kind instruments are created lazily at first dispatch; declare the
# families up front so /metrics advertises them from the first scrape.
_obs.get_registry().declare(
    "repro_batcher_queue_wait_seconds",
    "histogram",
    "Time a request spent queued before its batch dispatched.",
)
_obs.get_registry().declare(
    "repro_batcher_compute_seconds",
    "histogram",
    "Handler wall time for one dispatched batch.",
)
_obs.get_registry().declare(
    "repro_batcher_requests_total",
    "counter",
    "Requests served through the micro-batcher.",
)
_BATCHES_TOTAL = _obs.get_registry().counter(
    "repro_batcher_batches_total",
    "Dispatch rounds executed by the micro-batcher.",
)
_SHED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_shed_total",
    "Requests rejected at submit because the bounded queue was full.",
)
_EXPIRED_TOTAL = _obs.get_registry().counter(
    "repro_batcher_expired_total",
    "Queued requests failed fast because their deadline passed in queue.",
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
    """Coalesces concurrent requests into batched handler calls.

    Parameters
    ----------
    handlers:
        ``{kind: handler}`` where ``handler(payloads) -> results`` maps a
        batch of payloads to results aligned with the input order.
    start:
        Start the background dispatch thread immediately. With
        ``start=False`` the batcher runs in synchronous mode: callers
        must invoke :meth:`flush` (tests, single-threaded embedding).
    max_queue:
        Bound on queued-but-undispatched requests; a submit beyond it
        raises :class:`OverloadedError` (the server turns that into a
        429 + ``Retry-After``).  Shedding at the door keeps latency
        bounded under overload: an unbounded queue accepts work it can
        only serve long after every client gave up.  ``None`` reads
        ``REPRO_MAX_QUEUE`` (default 1024); 0 or negative disables the
        bound.
    """

    def __init__(
        self,
        handlers: Mapping[str, Callable[[list], list]],
        start: bool = True,
        max_queue: int | None = None,
    ):
        if max_queue is None:
            max_queue = int(os.environ.get("REPRO_MAX_QUEUE", DEFAULT_MAX_QUEUE))
        self._handlers = dict(handlers)
        self._max_queue = int(max_queue)
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._largest_batch = 0
        self._shed = 0
        self._expired = 0
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background dispatch thread (idempotent)."""
        with self._lock:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-microbatcher", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop the dispatch thread and flush remaining work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._queue.put(None)  # wake the dispatcher
            self._thread.join(timeout=5.0)
            self._thread = None
        self.flush()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration ------------------------------------------------------

    def register(self, kind: str, handler: Callable[[list], list]) -> None:
        """Register (or replace) a handler after construction.

        Lets optional subsystems — e.g. the monitor scheduler — route
        their work onto the session's single dispatch lane without the
        session having to know about them at construction time.
        """
        with self._lock:
            self._handlers[kind] = handler

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, payload: Any) -> Future:
        """Enqueue one request; the future resolves after its batch runs.

        Raises :class:`OverloadedError` (without enqueueing) when the
        bounded queue is already full — load shedding happens here, at
        the cheapest possible point, before the request costs anything.
        """
        if kind not in self._handlers:
            raise KeyError(
                f"no handler for request kind {kind!r}; "
                f"registered: {sorted(self._handlers)}"
            )
        if self._max_queue > 0 and self._queue.qsize() >= self._max_queue:
            self._shed += 1
            if _obs.enabled():
                _SHED_TOTAL.inc()
            raise OverloadedError(
                f"request queue full ({self._max_queue} pending); retry later"
            )
        future: Future = Future()
        # The caller's trace context and deadline ride along in the queue
        # item so the dispatch thread can attribute queue wait to the
        # trace and fail queued-but-expired requests without computing.
        self._queue.put(
            (
                kind,
                payload,
                future,
                time.perf_counter(),
                _tracing.current_context(),
                _deadline.current(),
            )
        )
        return future

    def run(self, kind: str, payload: Any) -> Any:
        """Submit and wait — the synchronous convenience path.

        In background mode the wait is where coalescing happens: requests
        that queue while the lane serves an earlier batch dispatch
        together in the next one.  In synchronous mode (no thread) the
        queue is flushed inline.
        """
        future = self.submit(kind, payload)
        if self._thread is None:
            self.flush()
        return future.result()

    # -- dispatch ----------------------------------------------------------

    def flush(self) -> int:
        """Drain the queue synchronously; returns the number served.

        Serialized by its own lock: after ``close()`` (e.g. a registry
        eviction) concurrent callers of :meth:`run` all fall back to
        inline flushing, and without the lock two of them would execute
        handler work — and touch the engine — simultaneously.  A waiter
        whose item was drained by the other flusher simply finds the
        queue empty and returns.
        """
        served = 0
        with self._flush_lock:
            while True:
                batch = self._drain(block=False)
                if not batch:
                    return served
                self._dispatch(batch)
                served += len(batch)

    def _drain(self, block: bool) -> list[_Item]:
        """The first queued item (waiting for it if ``block``) plus
        whatever else is already queued, up to :data:`MAX_BATCH`."""
        items: list[_Item] = []
        try:
            item = self._queue.get(block=block)
            while item is not None:
                items.append(item)
                if len(items) == MAX_BATCH:
                    break
                item = self._queue.get_nowait()
        except queue.Empty:
            pass
        return items

    def _dispatch(self, items: list[_Item]) -> None:
        observing = _obs.enabled()
        drained = time.perf_counter()
        now = time.monotonic()
        groups: dict[str, list[tuple[Any, Future, dict | None, float | None]]] = {}
        for kind, payload, future, enqueued, ctx, item_deadline in items:
            if item_deadline is not None and now >= item_deadline:
                # the deadline passed while the item sat in queue: fail
                # fast rather than compute an answer nobody is awaiting
                self._expired += 1
                if observing:
                    _EXPIRED_TOTAL.inc()
                future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired while queued (kind {kind!r})"
                    )
                )
                continue
            groups.setdefault(kind, []).append((payload, future, ctx, item_deadline))
            if observing:
                wait = drained - enqueued
                _kind_instruments(kind)[0].observe(wait)
                _tracing.record_span(
                    ctx, "queue_wait", wait * 1e3, tags={"kind": kind}
                )
        for kind, entries in groups.items():
            payloads = [p for p, _f, _c, _d in entries]
            # Re-enter the first caller's trace so spans opened inside the
            # handler (recourse solve, WAL fsync) land in a real trace; the
            # other callers of the batch get a replayed ``compute`` span.
            lead_ctx = next((c for _p, _f, c, _d in entries if c is not None), None)
            # The handler computes for the whole group, so it runs under
            # the group's most generous deadline: aborting at the tightest
            # would fail co-batched requests that still have budget, and
            # any item without a deadline means the group has none.
            deadlines = [d for _p, _f, _c, d in entries]
            group_deadline = (
                max(deadlines) if all(d is not None for d in deadlines) else None
            )
            compute_started = time.perf_counter()
            token = _deadline.attach(group_deadline)
            try:
                with _tracing.attach(lead_ctx):
                    results = self._handlers[kind](payloads)
                if len(results) != len(payloads):
                    raise RuntimeError(
                        f"handler {kind!r} returned {len(results)} results "
                        f"for {len(payloads)} payloads"
                    )
            except BaseException as exc:  # propagate to every waiter
                for _payload, future, _ctx, _d in entries:
                    future.set_exception(exc)
                continue
            finally:
                _deadline.restore(token)
                if observing:
                    compute = time.perf_counter() - compute_started
                    instruments = _kind_instruments(kind)
                    instruments[1].observe(compute)
                    instruments[2].inc(len(entries))
                    tags = {"kind": kind, "batch_size": len(payloads)}
                    for _payload, _future, ctx, _d in entries:
                        _tracing.record_span(ctx, "compute", compute * 1e3, tags=tags)
            for (_payload, future, _ctx, _d), result in zip(entries, results):
                future.set_result(result)
        if observing:
            _BATCHES_TOTAL.inc()
        self._requests += len(items)
        self._batches += 1
        self._largest_batch = max(self._largest_batch, len(items))

    def _run(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
            batch = self._drain(block=True)
            if batch:
                self._dispatch(batch)
            with self._lock:
                if self._closed:
                    return

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Dispatch counters: how well requests coalesced."""
        return {
            "requests": self._requests,
            "batches": self._batches,
            "largest_batch": self._largest_batch,
            "mean_batch": (self._requests / self._batches) if self._batches else 0.0,
            "max_queue": self._max_queue,
            "queue_depth": self._queue.qsize(),
            "shed": self._shed,
            "expired": self._expired,
            "background": self._thread is not None,
        }
