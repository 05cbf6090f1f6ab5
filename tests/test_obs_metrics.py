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
        hist = registry.histogram("t_seconds", "test")
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
        # every observation landed in the 0.25 s bucket
        cumulative = dict((le, n) for le, n in snap["buckets"])
        assert cumulative[0.1] == 0 and cumulative[0.25] == 8 * 500

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
        registry.declare("app_rows", "gauge", "Rows resident.")
        registry.register_collector("rows", lambda: {"app_rows": 17.0})
        hist = registry.histogram("app_seconds", "Latency.")
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

    def test_special_values_render_in_prometheus_spelling(self):
        registry = MetricsRegistry()
        registry.register_collector("odd", lambda: {
            "g_nan": float("nan"), "g_inf": float("inf"),
            "g_neg": float("-inf"), "g_int": 3.0, "g_frac": 0.5,
        })
        lines = registry.to_prometheus().splitlines()
        for line in ("g_nan NaN", "g_inf +Inf", "g_neg -Inf", "g_int 3", "g_frac 0.5"):
            assert line in lines

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("h_total", "two\nlines \\ here")
        text = registry.to_prometheus()
        assert "# HELP h_total two\\nlines \\\\ here\n" in text


# ---------------------------------------------------------------------------
# histogram buckets


class TestHistogramBuckets:
    def _cumulative(self, hist) -> dict:
        return dict((le, n) for le, n in hist.snapshot()["buckets"])

    def test_a_value_on_a_bound_counts_in_that_bucket(self):
        hist = MetricsRegistry().histogram("b_seconds", "test")
        hist.observe(0.001)
        cumulative = self._cumulative(hist)
        assert cumulative[0.0005] == 0 and cumulative[0.001] == 1

    def test_a_value_past_the_last_bound_counts_only_in_inf(self):
        hist = MetricsRegistry().histogram("b_seconds", "test")
        hist.observe(120.0)
        cumulative = self._cumulative(hist)
        assert cumulative[60.0] == 0 and cumulative["+Inf"] == 1
        assert hist.count == 1 and hist.sum == 120.0

    def test_every_histogram_shares_the_default_bounds(self):
        registry = MetricsRegistry()
        first = registry.histogram("one_seconds", "test")
        second = registry.histogram("two_seconds", "test", labels={"route": "x"})
        expected = list(obs.DEFAULT_TIME_BUCKETS) + ["+Inf"]
        for hist in (first, second):
            assert [le for le, _n in hist.snapshot()["buckets"]] == expected

    def test_name_and_labels_identify_one_histogram(self):
        registry = MetricsRegistry()
        a = registry.histogram("r_seconds", "test", labels={"route": "a"})
        assert registry.histogram("r_seconds", labels={"route": "a"}) is a
        b = registry.histogram("r_seconds", labels={"route": "b"})
        assert b is not a
        a.observe(0.1)
        histograms = registry.snapshot()["histograms"]
        assert set(histograms) == {'r_seconds{route="a"}', 'r_seconds{route="b"}'}
        assert histograms['r_seconds{route="a"}']["count"] == 1
        assert histograms['r_seconds{route="b"}']["count"] == 0


# ---------------------------------------------------------------------------
# names and families


class TestNamesAndFamilies:
    def test_a_family_keeps_its_first_kind(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "test")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("x_total", "test")
        with pytest.raises(ValueError):
            registry.declare("x_total", "gauge")

    def test_declare_rejects_unknown_kinds_and_bad_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric kind"):
            registry.declare("ok_name", "summary")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.declare("bad-name", "gauge")
        assert registry.to_prometheus() == "\n"

    def test_full_name_sorts_and_escapes_labels(self):
        key = obs.full_name("m", {"b": 'say "hi"', "a": "x\\y"})
        assert key == 'm{a="x\\\\y",b="say \\"hi\\""}'
        assert obs.full_name("m") == "m"
        with pytest.raises(ValueError, match="invalid label name"):
            obs.full_name("m", {"bad-label": 1})

    def test_reset_drops_every_instrument_and_collector(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "test").inc()
        registry.histogram("h_seconds", "test").observe(0.1)
        registry.declare("g", "gauge", "test")
        registry.register_collector("c1", lambda: {"g": 1.0})
        registry.reset()
        assert registry.stats() == {
            "counters": 0, "histograms": 0, "collectors": 0,
            "collector_errors": 0,
        }
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        registry.histogram("c_total", "reused name, new kind")  # family gone


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
