"""Unit tests for the micro-batching request dispatcher."""

from __future__ import annotations

import threading

import pytest

from repro.service.scheduler import MAX_BATCH, MicroBatcher


def echo_handler(payloads):
    return [("echo", p) for p in payloads]


class TestSynchronousMode:
    def test_run_dispatches_inline(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        assert batcher.run("echo", 1) == ("echo", 1)
        assert batcher.stats()["requests"] == 1

    def test_flush_serves_pending_futures_in_one_batch(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        futures = [batcher.submit("echo", i) for i in range(5)]
        served = batcher.flush()
        assert served == 5
        assert [f.result(timeout=1) for f in futures] == [("echo", i) for i in range(5)]
        assert batcher.stats()["batches"] == 1
        assert batcher.stats()["largest_batch"] == 5

    def test_unknown_kind_rejected(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        with pytest.raises(KeyError):
            batcher.submit("nope", 1)

    def test_handler_exception_propagates_to_all_waiters(self):
        def boom(payloads):
            raise RuntimeError("broken handler")

        batcher = MicroBatcher({"boom": boom, "echo": echo_handler}, start=False)
        bad = [batcher.submit("boom", i) for i in range(3)]
        good = batcher.submit("echo", "fine")
        batcher.flush()
        for future in bad:
            with pytest.raises(RuntimeError, match="broken handler"):
                future.result(timeout=1)
        assert good.result(timeout=1) == ("echo", "fine")

    def test_misaligned_handler_output_is_an_error(self):
        batcher = MicroBatcher({"short": lambda ps: []}, start=False)
        future = batcher.submit("short", 1)
        batcher.flush()
        with pytest.raises(RuntimeError, match="results"):
            future.result(timeout=1)

    def test_max_batch_splits_rounds(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=False)
        futures = [batcher.submit("echo", i) for i in range(2 * MAX_BATCH + 1)]
        assert batcher.flush() == 2 * MAX_BATCH + 1
        assert all(f.result(timeout=1)[1] == i for i, f in enumerate(futures))
        assert batcher.stats()["batches"] == 3
        assert batcher.stats()["largest_batch"] == MAX_BATCH

    @pytest.mark.parametrize("knob", ["window", "max_batch"])
    def test_removed_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            MicroBatcher({"echo": echo_handler}, start=False, **{knob: 1})

    def test_stats_report_no_window(self):
        stats = MicroBatcher({"echo": echo_handler}, start=False).stats()
        assert "window_s" not in stats and "max_batch" not in stats


class TestBackgroundMode:
    def test_concurrent_submissions_coalesce(self):
        """Requests queued while the lane is busy dispatch in one round."""
        calls: list[int] = []
        entered = threading.Event()
        release = threading.Event()

        def handler(payloads):
            calls.append(len(payloads))
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=5)
            return payloads

        with MicroBatcher({"echo": handler}, start=True) as batcher:
            first = batcher.submit("echo", 0)
            assert entered.wait(timeout=5)  # the lane is now busy
            rest = [batcher.submit("echo", i) for i in range(1, 8)]
            release.set()
            assert first.result(timeout=5) == 0
            assert [f.result(timeout=5) for f in rest] == list(range(1, 8))
            assert batcher.stats()["requests"] == 8
        assert calls == [1, 7]

    def test_close_is_idempotent_and_flushes(self):
        batcher = MicroBatcher({"echo": echo_handler}, start=True)
        batcher.close()
        batcher.close()
        assert batcher.stats()["background"] is False

    def test_context_manager(self):
        with MicroBatcher({"echo": echo_handler}, start=True) as batcher:
            assert batcher.run("echo", "x") == ("echo", "x")
