"""Request tracing: trace/span context, bounded rings, slow capture.

A *trace* is born at a system edge — the HTTP server opens one per
request, the CLI one per command — and identified by a 16-hex-char
``trace_id`` that doubles as the request id quoted in responses, error
bodies and WAL records.  Within a trace, :func:`span` context managers
record named, timed sections; the current ``(trace_id, span_id)`` pair
lives in a :mod:`contextvars` variable so nesting works naturally
within a thread.

A request runs on one thread from edge to answer — the session's lane
is a lock, not a thread hop — so its queue-wait, compute, recourse-solve
and monitor-refresh spans nest under the root by the context variable
alone.  Timings measured where a context manager cannot wrap the work
(the WAL's fsync, timed inside its append lock) are added to the active
trace with :func:`record_span`.

Finished traces are appended to a bounded ring (newest win) plus a
separate, longer-lived ring for *slow* requests (root duration above
``REPRO_OBS_SLOW_MS``, default 100) so a burst of fast traffic cannot
evict the interesting outliers — the sampled slow-request capture.
``REPRO_PROFILE=1`` additionally runs cProfile over each root span in
its thread and attaches the top functions by cumulative time to the
trace.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.obs import metrics as _metrics

#: (trace_id, span_id) of the innermost active span in this context.
_CONTEXT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_obs_context", default=None
)

SLOW_MS_DEFAULT = float(os.environ.get("REPRO_OBS_SLOW_MS", "100"))
RING_CAPACITY = 256
SLOW_RING_CAPACITY = 64
PROFILE_TOP_N = 20


def new_id() -> str:
    """A fresh 16-hex-char trace/request id.

    ``os.urandom(8).hex()`` rather than ``uuid.uuid4()``: ids are minted
    several times per request (trace + every span), and skipping the
    UUID object construction keeps the always-on path cheap.
    """
    return os.urandom(8).hex()


#: read once at import: the env var is an opt-in set before launch, and
#: re-reading ``os.environ`` costs ~1 µs per trace on the always-on path.
_PROFILING = os.environ.get("REPRO_PROFILE", "").strip() == "1"


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE=1`` per-span cProfile capture is on.

    Captured at import time; tests can monkeypatch ``_PROFILING``.
    """
    return _PROFILING


def current_context() -> dict | None:
    """The active ``{"trace_id", "span_id"}`` as plain (picklable) data."""
    ctx = _CONTEXT.get()
    if ctx is None:
        return None
    return {"trace_id": ctx[0], "span_id": ctx[1]}


def current_trace_id() -> str | None:
    """The active trace id, if any — the request-correlation token."""
    ctx = _CONTEXT.get()
    return None if ctx is None else ctx[0]


def _profile_top(profile, limit: int = PROFILE_TOP_N) -> list[dict]:
    """Top functions by cumulative time from a cProfile run."""
    import pstats

    stats = pstats.Stats(profile)
    rows = []
    for (filename, lineno, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        _cc, ncalls, tottime, cumtime = entry[:4]
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}:{name}",
                "calls": int(ncalls),
                "tottime_s": round(float(tottime), 6),
                "cumtime_s": round(float(cumtime), 6),
            }
        )
    rows.sort(key=lambda r: -r["cumtime_s"])
    return rows[:limit]


class Tracer:
    """Accumulates spans per trace and retains finished traces in rings."""

    def __init__(
        self,
        capacity: int = RING_CAPACITY,
        slow_capacity: int = SLOW_RING_CAPACITY,
        slow_ms: float = SLOW_MS_DEFAULT,
    ):
        self.slow_ms = float(slow_ms)
        self._lock = threading.Lock()
        self._active: dict[str, dict] = {}
        self._ring: deque[dict] = deque(maxlen=int(capacity))
        self._slow: deque[dict] = deque(maxlen=int(slow_capacity))
        self._started = 0
        self._finished = 0
        self._slow_captured = 0
        self._orphan_spans = 0

    # -- lifecycle of one trace ---------------------------------------------

    def begin(
        self, trace_id: str, name: str, tags: Mapping[str, Any] | None = None
    ) -> None:
        with self._lock:
            self._active[trace_id] = {
                "trace_id": trace_id,
                "name": name,
                "started_unix": time.time(),
                "tags": dict(tags or {}),
                "spans": [],
            }
            self._started += 1

    def add_span(self, trace_id: str, span: Mapping[str, Any]) -> None:
        """Append one finished span to an active trace (drop if unknown)."""
        with self._lock:
            active = self._active.get(trace_id)
            if active is None:
                self._orphan_spans += 1
                return
            active["spans"].append(dict(span))

    def finish(
        self,
        trace_id: str,
        duration_ms: float,
        status: str = "ok",
        profile: list[dict] | None = None,
        root_span: Mapping[str, Any] | None = None,
    ) -> dict | None:
        """Finalize a trace into the ring(s); returns the trace record.

        ``root_span`` lets the edge append its own span and finalize
        under one lock acquisition instead of two — the always-on path
        runs this once per request.
        """
        with self._lock:
            record = self._active.pop(trace_id, None)
            if record is None:
                return None
            if root_span is not None:
                record["spans"].append(dict(root_span))
            record["duration_ms"] = round(float(duration_ms), 3)
            record["status"] = status
            record["slow"] = duration_ms >= self.slow_ms
            record["n_spans"] = len(record["spans"])
            if profile:
                record["profile"] = profile
            self._ring.append(record)
            self._finished += 1
            if record["slow"]:
                self._slow.append(record)
                self._slow_captured += 1
            return record

    # -- reading -------------------------------------------------------------

    def peek_spans(self, trace_id: str) -> list[dict]:
        """Spans recorded so far for a still-active trace (copies)."""
        with self._lock:
            active = self._active.get(trace_id)
            return [dict(s) for s in active["spans"]] if active else []

    def get(self, trace_id: str) -> dict | None:
        """A finished trace by id (checks both rings, newest first)."""
        with self._lock:
            for ring in (self._ring, self._slow):
                for record in reversed(ring):
                    if record["trace_id"] == trace_id:
                        return dict(record)
        return None

    def query(
        self, min_ms: float = 0.0, limit: int = 50, slow_only: bool = False
    ) -> list[dict]:
        """Finished traces, newest first, filtered by root duration."""
        limit = max(0, int(limit))
        with self._lock:
            source = self._slow if slow_only else self._ring
            records = [dict(r) for r in reversed(source)]
        out = [r for r in records if r["duration_ms"] >= float(min_ms)]
        return out[:limit]

    def stats(self) -> dict:
        with self._lock:
            return {
                "active": len(self._active),
                "retained": len(self._ring),
                "slow_retained": len(self._slow),
                "started": self._started,
                "finished": self._finished,
                "slow_captured": self._slow_captured,
                "orphan_spans": self._orphan_spans,
                "slow_ms": self.slow_ms,
            }

    def clear(self) -> None:
        """Drop every active and retained trace (tests only)."""
        with self._lock:
            self._active.clear()
            self._ring.clear()
            self._slow.clear()


#: the process-wide tracer the server, CLI and instruments share.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return TRACER


# ---------------------------------------------------------------------------
# context managers


@contextmanager
def trace(
    name: str,
    trace_id: str | None = None,
    tags: Mapping[str, Any] | None = None,
    tracer: Tracer | None = None,
) -> Iterator[str | None]:
    """Open a root span: the edge entry point (HTTP request, CLI command).

    Yields the trace id (``None`` when observability is disabled).  The
    trace is finalized into the tracer's rings when the block exits, so
    a follow-up ``/v1/traces`` query observes it immediately.
    """
    if not _metrics.enabled():
        yield None
        return
    tracer = tracer or TRACER
    tid = trace_id or new_id()
    root_span = new_id()
    token = _CONTEXT.set((tid, root_span))
    started_unix = time.time()
    tracer.begin(tid, name, tags)
    profile = None
    if profiling_enabled():
        import cProfile

        profile = cProfile.Profile()
        try:
            profile.enable()
        except ValueError:  # another profiler active in this thread
            profile = None
    started = time.perf_counter()
    status = "ok"
    try:
        yield tid
    except BaseException as exc:
        status = f"error:{type(exc).__name__}"
        raise
    finally:
        duration_ms = (time.perf_counter() - started) * 1e3
        if profile is not None:
            profile.disable()
        _CONTEXT.reset(token)
        tracer.finish(
            tid,
            duration_ms,
            status=status,
            profile=_profile_top(profile) if profile is not None else None,
            root_span={
                "span_id": root_span,
                "parent_id": None,
                "name": name,
                "started_unix": started_unix,
                "duration_ms": round(duration_ms, 3),
                "tags": dict(tags or {}),
            },
        )


@contextmanager
def span(
    name: str,
    tags: Mapping[str, Any] | None = None,
    tracer: Tracer | None = None,
) -> Iterator[None]:
    """Record a timed child span under the active trace (no-op outside one)."""
    ctx = _CONTEXT.get()
    if ctx is None or not _metrics.enabled():
        yield
        return
    tracer = tracer or TRACER
    tid, parent = ctx
    sid = new_id()
    token = _CONTEXT.set((tid, sid))
    started_unix = time.time()
    started = time.perf_counter()
    try:
        yield
    finally:
        _CONTEXT.reset(token)
        tracer.add_span(
            tid,
            {
                "span_id": sid,
                "parent_id": parent,
                "name": name,
                "started_unix": started_unix,
                "duration_ms": round((time.perf_counter() - started) * 1e3, 3),
                "tags": dict(tags or {}),
            },
        )


def record_span(
    ctx: Mapping[str, Any] | None,
    name: str,
    duration_ms: float,
    started_unix: float | None = None,
    tags: Mapping[str, Any] | None = None,
    tracer: Tracer | None = None,
) -> None:
    """Replay an externally measured span into a trace.

    The path for timings measured where a context manager cannot run,
    such as an fsync timed inside the log's append lock.
    """
    if ctx is None or not _metrics.enabled():
        return
    (tracer or TRACER).add_span(
        str(ctx["trace_id"]),
        {
            "span_id": new_id(),
            "parent_id": str(ctx.get("span_id") or "") or None,
            "name": name,
            "started_unix": time.time() if started_unix is None else started_unix,
            "duration_ms": round(float(duration_ms), 3),
            "tags": dict(tags or {}),
        },
    )


__all__ = [
    "PROFILE_TOP_N",
    "RING_CAPACITY",
    "SLOW_MS_DEFAULT",
    "SLOW_RING_CAPACITY",
    "TRACER",
    "Tracer",
    "current_context",
    "current_trace_id",
    "get_tracer",
    "new_id",
    "profiling_enabled",
    "record_span",
    "span",
    "trace",
]
