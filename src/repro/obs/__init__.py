"""Process-wide observability: metrics registry, request tracing, profiling.

Every layer of the serving stack — result cache, engine tensor cache,
dispatch lane, write-ahead log, recourse solver, monitors — used to
expose its own ad-hoc ``stats()`` dict and nothing else.  This package
gives them one shared measurement substrate:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  pushed counters and log-scale latency histograms, with every gauge a
  collector sample read at scrape time; a stable snapshot schema and
  Prometheus text exposition, plus the unified :class:`CacheStats`
  schema every cache in the system reports through.
* :mod:`repro.obs.tracing` — ``trace_id``/span context created at the
  HTTP edge (and CLI entry) and carried by the request's own thread
  through the session and its lane; finished traces land in a bounded
  in-memory ring with a separate longer-lived ring for slow requests,
  and ``REPRO_PROFILE=1`` attaches a cProfile summary per root span.

The always-on path is cheap (one flag check plus a lock-guarded add per
event); ``REPRO_OBS=0`` or :func:`set_enabled` turns every instrument
into a no-op, which is what ``benchmarks/bench_obs_overhead.py`` uses
to prove the instrumented path stays within its <3% overhead budget.
"""

from repro.obs.metrics import (
    CacheStats,
    Counter,
    Histogram,
    MetricsRegistry,
    enabled,
    get_registry,
    preregister,
    render_prometheus,
    set_enabled,
)
from repro.obs.tracing import (
    Tracer,
    current_context,
    current_trace_id,
    get_tracer,
    new_id,
    profiling_enabled,
    record_span,
    span,
    trace,
)

__all__ = [
    "CacheStats",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "current_context",
    "current_trace_id",
    "enabled",
    "get_registry",
    "get_tracer",
    "new_id",
    "preregister",
    "profiling_enabled",
    "record_span",
    "render_prometheus",
    "set_enabled",
    "span",
    "trace",
]
