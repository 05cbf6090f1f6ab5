"""Black-box consistency checker: admissible histories pass, damage doesn't."""

from __future__ import annotations

import threading

from history_checker import HistoryRecorder, check_history


def write(client, replica, seq, version, token, ok=True):
    return {
        "op": "write", "client": client, "replica": replica, "ok": ok,
        "seq": seq, "version": version, "token": token,
    }


def read(client, replica, version, token=None, min_state=None, ok=True, t=0):
    return {
        "op": "read", "client": client, "replica": replica, "ok": ok,
        "version": version, "token": token, "min_state": min_state, "t": t,
    }


def finals(**replicas):
    return {
        name: {"state_token": tok, "table_version": ver, "last_seq": seq}
        for name, (tok, ver, seq) in replicas.items()
    }


class TestCleanHistories:
    def test_empty_history_passes(self):
        verdict = check_history([])
        assert verdict["ok"]
        assert verdict["violations"] == []
        assert verdict["serialization"] == []

    def test_serializable_history_passes_with_serialization(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            write("c1", "leader", seq=2, version=2, token="t2"),
            read("c2", "follower", version=1, token="t1", t=2),
            read("c2", "follower", version=2, token="t2", t=3),
            read("c1", "follower", version=2, min_state="t2", t=4),
        ]
        verdict = check_history(
            events, finals=finals(leader=("t2", 2, 2), follower=("t2", 2, 2))
        )
        assert verdict["ok"], verdict["violations"]
        assert [s["seq"] for s in verdict["serialization"]] == [1, 2]
        # both version-2 reads assigned to the write that produced them
        assert verdict["serialization"][1]["reads_observing"] == 2
        assert verdict["stats"]["acked_writes"] == 2
        assert verdict["stats"]["max_acked_seq"] == 2

    def test_reads_of_initial_state_are_admissible(self):
        events = [read("c1", "follower", version=0, token="t0", t=0)]
        verdict = check_history(events, initial={"version": 0, "token": "t0"})
        assert verdict["ok"], verdict["violations"]

    def test_failed_operations_are_ignored(self):
        events = [
            write("c1", "leader", seq=None, version=None, token=None, ok=False),
            read("c1", "follower", version=None, ok=False),
        ]
        assert check_history(events)["ok"]


class TestViolations:
    def test_fork_two_tokens_for_one_version(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="aaa"),
            read("c2", "follower", version=1, token="bbb", t=1),
        ]
        verdict = check_history(events)
        assert not verdict["ok"]
        assert any(v.startswith("fork:") for v in verdict["violations"])

    def test_duplicate_wal_seq_detected(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            write("c2", "leader", seq=1, version=2, token="t2"),
        ]
        verdict = check_history(events)
        assert any(
            "share WAL seq" in v for v in verdict["violations"]
        ), verdict["violations"]

    def test_log_order_version_order_disagreement(self):
        events = [
            write("c1", "leader", seq=1, version=2, token="t2"),
            write("c1", "leader", seq=2, version=1, token="t1"),
        ]
        verdict = check_history(events)
        assert any(
            "log order and version order disagree" in v
            for v in verdict["violations"]
        )

    def test_non_monotonic_reads_on_one_replica(self):
        events = [
            write("w", "leader", seq=1, version=1, token="t1"),
            write("w", "leader", seq=2, version=2, token="t2"),
            read("c1", "follower", version=2, token="t2", t=2),
            read("c1", "follower", version=1, token="t1", t=3),
        ]
        verdict = check_history(events)
        assert any(
            v.startswith("non-monotonic reads:") for v in verdict["violations"]
        )

    def test_same_client_different_replicas_may_regress(self):
        """Monotonic reads are per (client, replica): switching replicas
        without a pin legitimately observes older state."""
        events = [
            write("w", "leader", seq=1, version=1, token="t1"),
            write("w", "leader", seq=2, version=2, token="t2"),
            read("c1", "follower-a", version=2, token="t2", t=2),
            read("c1", "follower-b", version=1, token="t1", t=3),
        ]
        assert check_history(events)["ok"]

    def test_stale_pinned_read(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            write("c1", "leader", seq=2, version=2, token="t2"),
            read("c1", "follower", version=1, token="t1", min_state="t2", t=2),
        ]
        verdict = check_history(events)
        assert any(
            v.startswith("stale pinned read:") for v in verdict["violations"]
        )

    def test_unknown_pin_token_is_untestable_not_a_violation(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            read("c1", "follower", version=1, token="t1",
                 min_state="never-observed", t=1),
        ]
        verdict = check_history(events)
        assert verdict["ok"]
        assert verdict["stats"]["unpinnable_reads"] == 1

    def test_diverged_finals(self):
        events = [write("c1", "leader", seq=1, version=1, token="t1")]
        verdict = check_history(
            events, finals=finals(leader=("t1", 1, 1), follower=("zzz", 1, 1))
        )
        assert any(
            v.startswith("diverged finals:") for v in verdict["violations"]
        )

    def test_lost_acked_write(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            write("c1", "leader", seq=2, version=2, token="t2"),
        ]
        verdict = check_history(
            events, finals=finals(leader=("t2", 2, 2), follower=("t1", 1, 1))
        )
        assert any(
            v.startswith("lost acked write:") for v in verdict["violations"]
        )

    def test_phantom_read(self):
        events = [
            write("c1", "leader", seq=1, version=1, token="t1"),
            read("c2", "follower", version=7, token="t7", t=1),
        ]
        verdict = check_history(events)
        assert any(
            v.startswith("phantom read:") for v in verdict["violations"]
        )

    def test_acked_write_without_seq_is_uncheckable(self):
        events = [write("c1", "leader", seq=None, version=None, token=None)]
        verdict = check_history(events)
        assert any(
            "not checkable" in v for v in verdict["violations"]
        )


class TestHistoryRecorder:
    def test_events_are_stamped_in_arrival_order(self):
        recorder = HistoryRecorder()
        recorder.record_write("c1", "leader", True, seq=1, version=1, token="t")
        recorder.record_read("c1", "leader", True, version=1, token="t")
        events = recorder.events()
        assert [e["t"] for e in events] == [0, 1]
        assert events[0]["op"] == "write"
        assert events[1]["op"] == "read"
        # snapshots are copies: mutating them never corrupts the history
        events[0]["seq"] = 999
        assert recorder.events()[0]["seq"] == 1

    def test_concurrent_recording_assigns_unique_stamps(self):
        recorder = HistoryRecorder()

        def hammer(client):
            for i in range(50):
                recorder.record_read(client, "r", True, version=i)

        threads = [
            threading.Thread(target=hammer, args=(f"c{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stamps = [e["t"] for e in recorder.events()]
        assert sorted(stamps) == list(range(200))

    def test_recorded_history_round_trips_through_checker(self):
        recorder = HistoryRecorder()
        recorder.record_write("w", "leader", True, seq=1, version=1, token="t1")
        recorder.record_read("r", "follower", True, version=1, token="t1")
        verdict = check_history(
            recorder.events(), finals=finals(leader=("t1", 1, 1))
        )
        assert verdict["ok"], verdict["violations"]
