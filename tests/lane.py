"""Test helper: occupy a session's lane from other threads."""

from __future__ import annotations

import threading
import time


def hold_lane(batcher, waiters: int = 0):
    """Hold ``batcher``'s lane, with ``waiters`` more callers parked behind
    it, from other threads; returns the callback that lets them finish."""
    held, release = threading.Event(), threading.Event()

    def stall(_payload):
        held.set()
        release.wait(10)

    batcher.register("stall", stall)
    threads = [threading.Thread(target=batcher.run, args=("stall", None))]
    threads[0].start()
    assert held.wait(10), "the lane was never taken"
    for _ in range(waiters):
        threads.append(threading.Thread(target=batcher.run, args=("stall", None)))
        threads[-1].start()
    stop = time.monotonic() + 10
    while batcher.stats()["queue_depth"] < waiters:
        assert time.monotonic() < stop, "a waiter never parked on the lane"
        time.sleep(0.001)

    def finish() -> None:
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()

    return finish
