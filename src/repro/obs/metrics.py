"""Thread-safe process-wide metrics: counters, collector gauges, histograms.

One :class:`MetricsRegistry` per process (:func:`get_registry`) holds
every instrument under a namespaced, labelled metric name.  Each kind
has one mechanism: counters and log-scale latency histograms are
*pushed* (``counter(...).inc()``, ``histogram(...).observe()`` on the
hot path), and every gauge is a *collector* sample — a callable read at
snapshot time over state its owner already tracks (cache sizes, loaded
monitor sets, replica lag) — so the registry is the single source of
truth the ``/metrics`` endpoint, ``/v1/stats`` and the ``repro obs``
CLI all read.

Design constraints, in order:

* **Cheap when idle.** Every instrument checks one module flag before
  touching its lock; :func:`set_enabled` (or ``REPRO_OBS=0``) turns the
  whole layer into no-ops.  The overhead benchmark gates the enabled
  path at <3% of the service smoke workload.
* **Stable snapshot schema.** :meth:`MetricsRegistry.snapshot` returns
  ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` keyed
  by the full metric name (labels inline, Prometheus style); the same
  snapshot renders to Prometheus text exposition format via
  :func:`render_prometheus` — stdlib only, no client library.
* **One cache-stats shape.** :class:`CacheStats` is the dataclass every
  cache in the system (result cache, engine tensor cache, local-model
  cache, session registry) reports through, as ``as_dict()`` in
  ``/v1/stats`` and as ``repro_cache_*`` gauges in ``/metrics``.
"""

from __future__ import annotations

import bisect
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: module-wide enable flag; instruments check it before doing any work.
_ENABLED = os.environ.get("REPRO_OBS", "1").strip().lower() not in (
    "0",
    "false",
    "no",
    "off",
)


def enabled() -> bool:
    """Whether instruments record (``REPRO_OBS=0`` disables at import)."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Flip the global instrument switch; returns the previous value.

    The overhead benchmark measures the same workload under both
    settings; tests use it to assert the disabled path is free.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def _label_suffix(labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        if not _LABEL_RE.match(str(key)):
            raise ValueError(f"invalid label name {key!r}")
        value = str(labels[key]).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def full_name(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """``name{label="value",...}`` with labels sorted — the snapshot key."""
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name + _label_suffix(labels)


#: log-scale latency buckets in seconds: 0.1 ms up to 60 s, roughly one
#: bucket per 2.5x, shared by every histogram so bucket counts are
#: stable across snapshots and mergeable across processes.
DEFAULT_TIME_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Counter:
    """Monotone counter; ``inc`` is thread-safe and gated on the flag."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    Every histogram uses :data:`DEFAULT_TIME_BUCKETS`, so an ``observe``
    is a bisect plus two adds under the instrument's own lock — no
    allocation, no resize, safe from any thread.
    """

    __slots__ = ("name", "_lock", "_counts", "_count", "_sum")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * (len(DEFAULT_TIME_BUCKETS) + 1)  # +1 for +Inf
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        index = bisect.bisect_left(DEFAULT_TIME_BUCKETS, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """``{"count", "sum", "buckets": [[le, cumulative], ...]}``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_ = self._sum
        cumulative = []
        running = 0
        for bound, count in zip(DEFAULT_TIME_BUCKETS, counts):
            running += count
            cumulative.append([bound, running])
        cumulative.append(["+Inf", total])
        return {"count": total, "sum": sum_, "buckets": cumulative}


# ---------------------------------------------------------------------------
# the unified cache-stats schema


@dataclass(frozen=True)
class CacheStats:
    """The one cache-statistics shape every cache in the system reports.

    The result cache, the engine's tensor cache, the local-model cache
    and the registry's session LRU all report through it; there is no
    other cache-statistics dict.
    """

    name: str
    entries: int
    bytes: int
    max_bytes: int | None
    max_entries: int | None
    hits: int
    misses: int
    evictions: int
    extra: Mapping[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    @classmethod
    def from_lru(
        cls,
        name: str,
        lru,
        extra: Mapping[str, float] | None = None,
    ) -> "CacheStats":
        """Build from a :class:`~repro.utils.lru.ByteBudgetLRU`."""
        return cls(
            name=str(name),
            entries=len(lru._items),
            bytes=lru._bytes,
            max_bytes=lru.max_bytes,
            max_entries=lru.max_entries,
            hits=lru._hits,
            misses=lru._misses,
            evictions=lru._evictions,
            extra=dict(extra or {}),
        )

    def with_extra(self, extra: Mapping[str, float]) -> "CacheStats":
        """A copy with ``extra`` merged in (for cache-specific counters)."""
        import dataclasses

        return dataclasses.replace(self, extra={**dict(self.extra), **dict(extra)})

    def as_dict(self) -> dict:
        """The unified schema, JSON-ready."""
        return {
            "name": self.name,
            "entries": self.entries,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            **dict(self.extra),
        }

    def metric_samples(self, labels: Mapping[str, Any] | None = None) -> dict:
        """``repro_cache_*`` gauge samples for a registry collector."""
        labels = {"cache": self.name, **dict(labels or {})}
        samples = {
            full_name("repro_cache_entries", labels): float(self.entries),
            full_name("repro_cache_bytes", labels): float(self.bytes),
            full_name("repro_cache_hits_total", labels): float(self.hits),
            full_name("repro_cache_misses_total", labels): float(self.misses),
            full_name("repro_cache_evictions_total", labels): float(self.evictions),
            full_name("repro_cache_hit_rate", labels): float(self.hit_rate),
        }
        if self.max_bytes is not None:
            samples[full_name("repro_cache_max_bytes", labels)] = float(
                self.max_bytes
            )
        return samples


# ---------------------------------------------------------------------------
# the registry


class MetricsRegistry:
    """Namespaced process-wide registry of instruments and collectors.

    ``counter`` / ``histogram`` are get-or-create: calling with the same
    ``(name, labels)`` returns the same instrument, so call sites need
    no registration ceremony.  A *collector* is a zero-argument
    callable returning ``{full_name: value}`` gauges sampled at snapshot
    time — the one gauge mechanism, for subsystems that already keep
    the state (caches, monitor sets, replica lag).  A collector
    that raises :class:`LookupError` is dropped (the idiom for weakref'd
    owners that have been garbage-collected); any other exception skips
    it for that snapshot and counts an error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], Mapping[str, float]]] = {}
        self._collector_errors = 0

    # -- instrument creation -----------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> None:
        existing = self._types.get(name)
        if existing is not None and existing != kind:
            raise ValueError(
                f"metric {name!r} already registered as {existing}, not {kind}"
            )
        self._types[name] = kind
        if help and name not in self._help:
            self._help[name] = str(help)

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
    ) -> Counter:
        key = full_name(name, labels)
        with self._lock:
            self._family(name, "counter", help)
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(key)
                self._counters[key] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
    ) -> Histogram:
        key = full_name(name, labels)
        with self._lock:
            self._family(name, "histogram", help)
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(key)
                self._histograms[key] = instrument
            return instrument

    def declare(self, name: str, kind: str, help: str = "") -> None:
        """Register a family's TYPE/HELP without creating an instrument.

        For labelled families whose instruments are created lazily per
        label set: declaring at import time makes ``/metrics`` advertise
        the family from the first scrape.
        """
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        full_name(name)  # validates the family name
        with self._lock:
            self._family(name, kind, help)

    # -- collectors ----------------------------------------------------------

    def register_collector(
        self, key: str, fn: Callable[[], Mapping[str, float]]
    ) -> str:
        """Register (or replace) the collector stored under ``key``."""
        with self._lock:
            self._collectors[str(key)] = fn
        return str(key)

    def unregister_collector(self, key: str) -> bool:
        with self._lock:
            return self._collectors.pop(str(key), None) is not None

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Stable point-in-time view: counters, gauges, histograms.

        Collector samples make up the ``gauges`` section (point-in-time
        values by nature).  The shape is the contract ``/v1/stats``,
        ``/metrics`` and the CLI all build on.
        """
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.items())
            collectors = list(self._collectors.items())
        out = {
            "counters": {c.name: c.value for c in counters},
            "gauges": {},
            "histograms": {key: h.snapshot() for key, h in histograms},
        }
        dead = []
        for key, fn in collectors:
            try:
                samples = fn()
            except LookupError:
                dead.append(key)
                continue
            except Exception:
                self._collector_errors += 1
                continue
            for name, value in samples.items():
                out["gauges"][name] = float(value)
        for key in dead:
            self.unregister_collector(key)
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of a snapshot."""
        return render_prometheus(self.snapshot(), self._types, self._help)

    def stats(self) -> dict:
        """Registry self-accounting (instrument/collector counts)."""
        with self._lock:
            return {
                "counters": len(self._counters),
                "histograms": len(self._histograms),
                "collectors": len(self._collectors),
                "collector_errors": self._collector_errors,
            }

    def reset(self) -> None:
        """Drop every instrument and collector (tests only)."""
        with self._lock:
            self._types.clear()
            self._help.clear()
            self._counters.clear()
            self._histograms.clear()
            self._collectors.clear()
            self._collector_errors = 0


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(float(value))


def _split_labels(key: str) -> tuple[str, str]:
    """Split a full metric name into (family, label suffix incl. braces)."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _merge_le(suffix: str, le: Any) -> str:
    le_text = le if isinstance(le, str) else _format_value(float(le))
    if not suffix:
        return '{le="%s"}' % le_text
    return suffix[:-1] + ',le="%s"}' % le_text


def render_prometheus(
    snapshot: Mapping[str, Any],
    types: Mapping[str, str] | None = None,
    help: Mapping[str, str] | None = None,
) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Families are sorted by name and samples within a family by label
    suffix, so the output is deterministic; histogram buckets emit the
    standard ``_bucket``/``_sum``/``_count`` triple with cumulative
    counts and a trailing ``+Inf`` bucket.
    """
    types = dict(types or {})
    help = dict(help or {})
    families: dict[str, list[str]] = {}

    def family_of(key: str, fallback_kind: str) -> str:
        name, _suffix = _split_labels(key)
        if name not in types:
            types[name] = fallback_kind
        return name

    for key in sorted(snapshot.get("counters", {})):
        name = family_of(key, "counter")
        value = snapshot["counters"][key]
        families.setdefault(name, []).append(f"{key} {_format_value(value)}")
    for key in sorted(snapshot.get("gauges", {})):
        name = family_of(key, "gauge")
        value = snapshot["gauges"][key]
        families.setdefault(name, []).append(f"{key} {_format_value(value)}")
    for key in sorted(snapshot.get("histograms", {})):
        name, suffix = _split_labels(key)
        if name not in types:
            types[name] = "histogram"
        data = snapshot["histograms"][key]
        lines = families.setdefault(name, [])
        for le, cumulative in data["buckets"]:
            lines.append(
                f"{name}_bucket{_merge_le(suffix, le)} {_format_value(cumulative)}"
            )
        lines.append(f"{name}_sum{suffix} {_format_value(data['sum'])}")
        lines.append(f"{name}_count{suffix} {_format_value(data['count'])}")

    out: list[str] = []
    for name in sorted(set(types) | set(families)):
        text = help.get(name)
        if text:
            escaped = text.replace("\\", "\\\\").replace("\n", "\\n")
            out.append(f"# HELP {name} {escaped}")
        out.append(f"# TYPE {name} {types.get(name, 'untyped')}")
        out.extend(families.get(name, []))
    return "\n".join(out) + "\n"


#: the process-wide default registry every subsystem pushes into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def preregister() -> None:
    """Import every instrumented subsystem so its metric families exist.

    ``/metrics`` should advertise the full family catalogue (with zero
    values) from the first scrape, not only after each subsystem has
    seen traffic; the server calls this once at startup.
    """
    import repro.estimation.engine  # noqa: F401
    import repro.core.recourse  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.monitor.monitors  # noqa: F401
    import repro.replication.manager  # noqa: F401
    import repro.service.scheduler  # noqa: F401
    import repro.store.registry  # noqa: F401
    import repro.store.wal  # noqa: F401


__all__ = [
    "CacheStats",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enabled",
    "full_name",
    "get_registry",
    "preregister",
    "render_prometheus",
    "set_enabled",
]
