"""Metrics registry: thread safety, exposition format, unified cache stats."""

from __future__ import annotations

import re
import threading

import pytest

from repro.obs import metrics as obs
from repro.obs.metrics import CacheStats, MetricsRegistry


# ---------------------------------------------------------------------------
# instruments under concurrency


class TestThreadSafety:
    def test_counter_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "test")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 1000

    def test_histogram_concurrent_observations_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "test", buckets=[0.5, 1.0])
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(0.25) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap["count"] == 8 * 500
        assert snap["sum"] == pytest.approx(8 * 500 * 0.25)
        # every observation landed in the first bucket
        assert snap["buckets"][0] == [0.5, 8 * 500]

    def test_get_or_create_races_produce_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def grab():
            seen.append(registry.counter("shared_total", "test"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


# ---------------------------------------------------------------------------
# exposition


class TestPrometheusExposition:
    def _filled_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("app_requests_total", "Requests.", labels={"kind": "x"}).inc(3)
        registry.gauge("app_rows", "Rows resident.").set(17)
        hist = registry.histogram("app_seconds", "Latency.", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return registry

    def test_lines_are_valid_prometheus_text(self):
        text = self._filled_registry().to_prometheus()
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*='
            r'"[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+$'
        )
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert sample.match(line), line

    def test_histogram_buckets_cumulative_and_inf_equals_count(self):
        text = self._filled_registry().to_prometheus()
        buckets = {
            m.group(1): float(m.group(2))
            for m in re.finditer(
                r'app_seconds_bucket\{le="([^"]+)"\} ([0-9.e+]+)', text
            )
        }
        assert buckets["0.1"] <= buckets["1"] <= buckets["+Inf"]
        count = float(re.search(r"app_seconds_count (\S+)", text).group(1))
        assert buckets["+Inf"] == count == 3

    def test_type_and_help_advertised(self):
        text = self._filled_registry().to_prometheus()
        assert "# TYPE app_requests_total counter" in text
        assert "# HELP app_rows Rows resident." in text
        assert "# TYPE app_seconds histogram" in text

    def test_declared_family_advertised_before_first_sample(self):
        registry = MetricsRegistry()
        registry.declare("later_total", "counter", "Created lazily.")
        text = registry.to_prometheus()
        assert "# TYPE later_total counter" in text


# ---------------------------------------------------------------------------
# collectors


class TestCollectors:
    def test_collector_output_lands_in_gauges(self):
        registry = MetricsRegistry()
        registry.register_collector("c1", lambda: {"live_things": 4.0})
        assert registry.snapshot()["gauges"]["live_things"] == 4.0

    def test_lookup_error_auto_unregisters(self):
        registry = MetricsRegistry()

        def dead():
            raise LookupError("gone")

        registry.register_collector("c1", dead)
        snap = registry.snapshot()
        assert registry.stats()["collectors"] == 0
        assert snap["gauges"] == {}

    def test_other_collector_errors_counted_not_fatal(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        registry.register_collector("c1", broken)
        registry.snapshot()
        assert registry.stats()["collectors"] == 1
        assert registry.stats()["collector_errors"] == 1

    def test_unregister_is_idempotent(self):
        registry = MetricsRegistry()
        registry.register_collector("c1", lambda: {})
        assert registry.unregister_collector("c1") is True
        assert registry.unregister_collector("c1") is False


# ---------------------------------------------------------------------------
# the unified cache schema


class TestCacheStats:
    def test_with_extra_merges_without_mutating(self):
        stats = CacheStats(
            name="x", entries=0, bytes=0, max_bytes=None, max_entries=None,
            hits=0, misses=0, evictions=0,
        )
        extended = stats.with_extra({"invalidations": 2})
        assert extended.extra == {"invalidations": 2}
        assert stats.extra == {}

    def test_metric_samples_are_labelled_gauge_names(self):
        stats = CacheStats(
            name="result", entries=3, bytes=12, max_bytes=64, max_entries=None,
            hits=9, misses=1, evictions=0,
        )
        samples = stats.metric_samples({"tenant": "t"})
        key = 'repro_cache_entries{cache="result",tenant="t"}'
        assert samples[key] == 3.0
        assert samples['repro_cache_hit_rate{cache="result",tenant="t"}'] == 0.9


# ---------------------------------------------------------------------------
# the global switch


class TestEnabledFlag:
    def test_disabled_instruments_noop(self):
        registry = MetricsRegistry()
        counter = registry.counter("off_total", "test")
        hist = registry.histogram("off_seconds", "test")
        obs.set_enabled(False)
        try:
            counter.inc()
            hist.observe(1.0)
        finally:
            obs.set_enabled(True)
        assert counter.value == 0
        assert hist.snapshot()["count"] == 0
