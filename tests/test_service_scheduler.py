"""Unit tests for the session's dispatch lane (one lock, caller's thread)."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from lane import hold_lane

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.models.pipeline import fit_table_model
from repro.service.scheduler import MicroBatcher
from repro.service.session import ExplainerSession
from repro.store import Registry
from repro.utils import deadline
from repro.utils.exceptions import DeadlineExceededError, OverloadedError


def echo(payload):
    return ("echo", payload)


class TestRun:
    def test_runs_the_handler_on_the_callers_thread(self):
        seen = []
        batcher = MicroBatcher({"who": lambda p: seen.append(threading.get_ident())})
        batcher.run("who", None)
        assert seen == [threading.get_ident()]
        assert batcher.stats()["requests"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            MicroBatcher({"echo": echo}).run("nope", 1)

    def test_handler_exception_reaches_only_its_caller(self):
        def boom(_payload):
            raise RuntimeError("broken handler")

        batcher = MicroBatcher({"boom": boom, "echo": echo})
        with pytest.raises(RuntimeError, match="broken handler"):
            batcher.run("boom", 1)
        # the lane was released: the next caller runs at once
        assert batcher.run("echo", "fine") == ("echo", "fine")
        assert batcher.stats()["requests"] == 2

    def test_callers_never_overlap_and_each_gets_its_own_result(self):
        inside = []
        overlaps = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible

        def handler(payload):
            inside.append(payload)
            if len(inside) > 1:
                overlaps.append(list(inside))
            time.sleep(0)  # invite a switch while the lane is held
            inside.remove(payload)
            return payload * 2

        batcher = MicroBatcher({"double": handler})
        results: dict[int, list] = {}

        def caller(t):
            results[t] = [batcher.run("double", t * 1000 + i) for i in range(50)]

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert overlaps == []
        assert results == {
            t: [2 * (t * 1000 + i) for i in range(50)] for t in range(4)
        }
        assert batcher.stats()["requests"] == 200

    def test_register_adds_a_kind(self):
        batcher = MicroBatcher({})
        batcher.register("echo", echo)
        assert batcher.run("echo", 3) == ("echo", 3)

    @pytest.mark.parametrize("knob", ["window", "max_batch", "start"])
    def test_removed_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            MicroBatcher({"echo": echo}, **{knob: 1})

    def test_stats_shape(self):
        stats = MicroBatcher({"echo": echo}, max_queue=7).stats()
        assert stats == {
            "requests": 0, "max_queue": 7, "queue_depth": 0, "shed": 0, "expired": 0
        }


class TestBounds:
    def test_sheds_when_max_queue_callers_wait(self):
        batcher = MicroBatcher({"echo": echo}, max_queue=1)
        finish = hold_lane(batcher, waiters=1)
        try:
            with pytest.raises(OverloadedError, match="queue full"):
                batcher.run("echo", "shed")
            assert batcher.stats()["shed"] == 1
        finally:
            finish()
        stats = batcher.stats()
        assert stats["queue_depth"] == 0 and stats["requests"] == 2

    def test_deadline_expires_while_queued_near_its_deadline(self):
        batcher = MicroBatcher({"echo": echo})
        finish = hold_lane(batcher)
        try:
            started = time.monotonic()
            with deadline.scope(100), pytest.raises(
                DeadlineExceededError, match="while queued"
            ):
                batcher.run("echo", 1)
            waited = time.monotonic() - started
        finally:
            finish()
        # failed at its own deadline, long before the holder let go
        assert 0.09 <= waited < 5.0
        assert batcher.stats()["expired"] == 1
        assert batcher.stats()["queue_depth"] == 0

    def test_spent_deadline_fails_without_taking_the_lane(self):
        ran = []
        batcher = MicroBatcher({"note": ran.append})
        with deadline.scope(1):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                batcher.run("note", 1)
        assert ran == [] and batcher.stats()["expired"] == 1


def _tiny_lewis() -> Lewis:
    rng = np.random.default_rng(5)
    rows = {name: rng.integers(0, 3, 80).tolist() for name in ("a", "b")}
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, ["a", "b"], "y", seed=5)
    return Lewis(
        model,
        data=table.select(["a", "b"]),
        positive_outcome=1,
        infer_orderings=False,
    )


class TestNoThreads:
    def test_session_serves_concurrent_callers_without_a_thread(self):
        before = set(threading.enumerate())
        session = ExplainerSession(_tiny_lewis(), default_actionable=["a", "b"])
        assert not set(threading.enumerate()) - before  # no new thread
        answers = []

        def caller():
            answers.append(session.explain_global()["result"])

        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(30)
            assert not thread.is_alive()
        session.update({"insert": [{"a": 1, "b": 1}]})
        session.close()
        assert not set(threading.enumerate()) - before  # no new thread
        assert len(answers) == 4 and all(a == answers[0] for a in answers)

    def test_registry_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        registry = Registry(tmp_path / "store")
        registry.add("alpha", _tiny_lewis())
        registry.get("alpha").update({"insert": [{"a": 0, "b": 2}]})
        registry.evict("alpha")
        assert registry.get("alpha").explain_global()["result"]
        registry.close()
        assert not set(threading.enumerate()) - before  # no new thread
