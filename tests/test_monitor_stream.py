"""Streaming monitors: rebuild parity, watch long-poll, journal recovery.

The subsystem's three contracts, each tested against its oracle:

* **Parity** — a monitor's incrementally refreshed summary after any
  sequence of delta batches is *bit-identical* to recomputing the same
  summary on a fresh estimator over the current table (the oracle
  :func:`oracles.rebuild_summary`).  Hypothesis drives randomized
  histories; the NEC-score case runs 100+ batches per example per the
  subsystem's acceptance bar.
* **Watch** — long-poll cursor semantics: buffered alerts return
  immediately, an up-to-date cursor times out empty, a cursor that fell
  off the ring is flagged ``cursor_truncated``.
* **Journal** — registrations, removals, alerts and detector state
  survive a close/reopen round trip; a torn tail is truncated silently;
  mid-log corruption refuses to replay.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor import MonitorJournal, MonitorSet, compute_summary
from repro.service.session import ExplainerSession
from repro.store import ArtifactStore, checkpoint_session, create_tenant
from repro.utils.exceptions import StoreError

from oracles import rebuild_summary

CARDS = {"a": 3, "b": 4, "c": 2}
NAMES = tuple(CARDS)


def make_table(rows: list[tuple[int, ...]]) -> Table:
    return Table.from_dict(
        {name: [row[i] for row in rows] for i, name in enumerate(NAMES)},
        domains={name: list(range(card)) for name, card in CARDS.items()},
    )


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    n = 400
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 4, n).tolist(),
        "c": rng.integers(0, 2, n).tolist(),
    }
    rows["y"] = [
        int(a + b + c >= 3) for a, b, c in zip(rows["a"], rows["b"], rows["c"])
    ]
    table = Table.from_dict(
        rows,
        domains={"a": [0, 1, 2], "b": [0, 1, 2, 3], "c": [0, 1], "y": [0, 1]},
    )
    return fit_table_model("logistic", table, list(NAMES), "y", seed=0)


def build_lewis(trained, table: Table) -> Lewis:
    return Lewis(
        trained,
        data=table,
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


def seed_rows(rng: np.random.Generator, n: int) -> list[tuple[int, ...]]:
    return [
        tuple(int(rng.integers(0, CARDS[name])) for name in NAMES)
        for _ in range(n)
    ]


def random_batch(
    rng: np.random.Generator, mirror: list[tuple[int, ...]]
) -> tuple[dict, list[tuple[int, ...]]]:
    """One random insert/delete delta that keeps every category populated.

    Scores condition on attribute values, so a delta that empties a
    category would make the monitored quantity undefined on *both* the
    incremental and the rebuilt side — legal, but not what this parity
    test is probing. Returns the batch and the expected post-state rows.
    """
    n = len(mirror)
    inserts = seed_rows(rng, int(rng.integers(0, 4)))
    n_del = int(rng.integers(0, min(3, max(n - 8, 0)) + 1))
    deletes = sorted(
        int(i) for i in rng.choice(n, size=n_del, replace=False)
    ) if n_del else []
    kept = [row for i, row in enumerate(mirror) if i not in set(deletes)]
    after = kept + inserts
    for axis, name in enumerate(NAMES):
        seen = {row[axis] for row in after}
        for value in range(CARDS[name]):
            if value not in seen:
                cover = tuple(value if i == axis else 0 for i in range(len(NAMES)))
                inserts.append(cover)
                after.append(cover)
    batch = {"insert": [dict(zip(NAMES, row)) for row in inserts], "delete": deletes}
    return batch, after


ALL_KIND_PAYLOADS = [
    {"kind": "score", "params": {"attribute": "a", "value": 2, "baseline": 0}},
    {"kind": "fairness", "params": {"attribute": "b"}},
    {"kind": "monotonicity", "params": {"attribute": "a"}},
    {
        "kind": "recourse",
        "params": {"attribute": "a", "actionable": ["a", "b"], "probe_size": 6},
    },
]


class TestSummaryParity:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nec_score_parity_over_100_batches(self, trained, seed):
        """The acceptance bar: 100+ incremental refreshes, all bit-exact."""
        rng = np.random.default_rng(seed)
        mirror = seed_rows(rng, 30) + [
            tuple(v if i == axis else 0 for i in range(len(NAMES)))
            for axis, name in enumerate(NAMES)
            for v in range(CARDS[name])
        ]
        session = ExplainerSession(build_lewis(trained, make_table(mirror)))
        monitors = MonitorSet(session)
        desc = monitors.add(
            {"kind": "score", "params": {"attribute": "a", "value": 2, "baseline": 0}}
        )
        spec = monitors._monitors[desc["id"]]["spec"]
        batches = 100 + int(rng.integers(0, 20))
        for _ in range(batches):
            batch, mirror = random_batch(rng, mirror)
            session.update(batch)
            monitors.refresh()
            state = monitors._monitors[desc["id"]]
            assert state["summary"] == rebuild_summary(session.lewis, spec)
        assert len(session.lewis.data) == len(mirror)
        state = monitors.get(desc["id"])
        # a no-op batch does not advance the stream position, so count
        # covered positions, not update() calls
        assert state["batches_seen"] == state["cursor"] - state["registered_at"]
        assert state["batches_seen"] >= 1
        assert state["refreshes"] <= batches

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_all_kinds_parity_after_random_batches(self, trained, seed):
        rng = np.random.default_rng(seed)
        mirror = seed_rows(rng, 40) + [
            tuple(v if i == axis else 0 for i in range(len(NAMES)))
            for axis, name in enumerate(NAMES)
            for v in range(CARDS[name])
        ]
        session = ExplainerSession(build_lewis(trained, make_table(mirror)))
        monitors = MonitorSet(session)
        ids = [monitors.add(payload)["id"] for payload in ALL_KIND_PAYLOADS]
        for _ in range(int(rng.integers(3, 8))):
            batch, mirror = random_batch(rng, mirror)
            session.update(batch)
        monitors.refresh()
        for monitor_id in ids:
            state = monitors._monitors[monitor_id]
            assert state["summary"] == rebuild_summary(session.lewis, state["spec"])
            # and the maintained summary is what compute_summary sees now
            assert state["summary"] == compute_summary(session.lewis, state["spec"])

    def test_refresh_is_noop_at_cursor(self, trained):
        session = ExplainerSession(build_lewis(trained, make_table([(0, 0, 0)] * 20)))
        monitors = MonitorSet(session)
        desc = monitors.add({"kind": "monotonicity", "params": {"attribute": "b"}})
        out = monitors.refresh()
        assert out["refreshed"] == 0  # nothing past the registration cursor
        assert monitors.get(desc["id"])["refreshes"] == 0

    def test_bad_specs_rejected(self, trained):
        session = ExplainerSession(build_lewis(trained, make_table([(0, 0, 0)] * 20)))
        monitors = MonitorSet(session)
        with pytest.raises(ValueError):
            monitors.add({"kind": "nope"})
        with pytest.raises(ValueError):
            monitors.add(
                {"kind": "score", "params": {"attribute": "a", "value": 1, "baseline": 1}}
            )
        with pytest.raises(ValueError):
            monitors.add({"kind": "score", "metric": "feasibility_rate",
                          "params": {"attribute": "a", "value": 1, "baseline": 0}})
        with pytest.raises(KeyError):
            monitors.add({"kind": "recourse", "params": {"actionable": ["zz"]}})


def shifted_session(trained, monitors_payload: dict):
    """Session + monitor + a delta that drives ``a`` to its treated value."""
    rng = np.random.default_rng(7)
    session = ExplainerSession(build_lewis(trained, make_table(seed_rows(rng, 60))))
    monitors = MonitorSet(session)
    desc = monitors.add(monitors_payload)
    return session, monitors, desc


class TestWatch:
    def test_alert_fires_and_watch_sees_it(self, trained):
        session, monitors, desc = shifted_session(
            trained,
            {
                "kind": "score",
                "params": {"attribute": "a", "value": 2, "baseline": 0},
                "threshold": 0.05,
            },
        )
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(monitors.watch(cursor=0, timeout=10))
        )
        thread.start()
        time.sleep(0.05)
        session.update({"insert": [{"a": 2, "b": 0, "c": 0}] * 200})
        monitors.refresh()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["alerts"], result
        alert = result["alerts"][0]
        assert alert["monitor_id"] == desc["id"]
        assert alert["seq"] == 1
        assert alert["wal_seq"] == 1  # table_version for in-memory sessions
        assert result["cursor"] == alert["seq"]
        assert not result["timed_out"]
        assert not result["cursor_truncated"]
        # the same alert is served again to a cursor-0 reconnect
        again = monitors.watch(cursor=0, timeout=0)
        assert [a["seq"] for a in again["alerts"]] == [1]

    def test_up_to_date_cursor_times_out_empty(self, trained):
        _, monitors, _ = shifted_session(
            trained, {"kind": "fairness", "params": {"attribute": "b"}}
        )
        start = time.monotonic()
        out = monitors.watch(cursor=0, timeout=0.2)
        assert time.monotonic() - start >= 0.2
        assert out["timed_out"] and out["alerts"] == []
        assert out["cursor"] == 0

    def test_cursor_truncated_when_ring_overflows(self, trained):
        from collections import deque

        session, monitors, _ = shifted_session(
            trained,
            {
                "kind": "score",
                "params": {"attribute": "a", "value": 2, "baseline": 0},
                "cusum": {"limit": 0.01, "slack": 0.0},
            },
        )
        monitors._alerts = deque(maxlen=2)  # shrink the ring for the test
        for value in (2, 0, 2, 0, 2, 0):
            session.update({"insert": [{"a": value, "b": 0, "c": 0}] * 120})
            monitors.refresh()
        total = monitors.stats()["alerts_total"]
        assert total > 2  # the oscillation re-fired CUSUM past the ring size
        out = monitors.watch(cursor=0, timeout=0)
        assert out["cursor_truncated"]
        assert [a["seq"] for a in out["alerts"]] == [total - 1, total]
        # a caught-up cursor is not flagged
        assert not monitors.watch(cursor=total, timeout=0)["cursor_truncated"]


class TestJournalRecovery:
    def _fire_one_alert(self, trained, path):
        rng = np.random.default_rng(3)
        session = ExplainerSession(build_lewis(trained, make_table(seed_rows(rng, 50))))
        monitors = MonitorSet(session, journal=MonitorJournal(path))
        kept = monitors.add(
            {
                "kind": "score",
                "params": {"attribute": "a", "value": 2, "baseline": 0},
                "threshold": 0.05,
                "cusum": {"limit": 0.5},
            }
        )
        doomed = monitors.add({"kind": "fairness", "params": {"attribute": "b"}})
        monitors.remove(doomed["id"])
        session.update({"insert": [{"a": 2, "b": 0, "c": 0}] * 200})
        monitors.refresh()
        assert monitors.stats()["alerts_total"] >= 1
        return session, monitors, kept

    def test_round_trip_restores_monitors_alerts_and_detectors(
        self, trained, tmp_path
    ):
        path = tmp_path / "monitors.jsonl"
        session, monitors, kept = self._fire_one_alert(trained, path)
        before = monitors._monitors[kept["id"]]
        total = monitors.stats()["alerts_total"]
        monitors.close()  # "crash": only the journal survives

        # the contract: detectors resume from the *last journaled*
        # checkpoint (the state snapshot in the final alert record),
        # not from whatever the live accumulators drifted to afterwards
        journal = MonitorJournal(path)
        checkpoint = [
            r["data"]["states"] for r in journal.replay() if r["kind"] == "alert"
        ][-1]

        recovered = MonitorSet(session, journal=journal)
        assert set(recovered._monitors) == {kept["id"]}
        state = recovered._monitors[kept["id"]]
        assert state["baseline"] == before["baseline"]
        assert state["alerts"] == before["alerts"]
        assert recovered.stats()["alerts_total"] == total
        assert {
            d.name: d.export_state() for d in state["detectors"]
        } == checkpoint
        # replayed alerts are served to watchers
        replayed = recovered.watch(cursor=0, timeout=0)
        assert [a["monitor_id"] for a in replayed["alerts"]] == [kept["id"]] * total
        # ids continue past the recovered maximum
        fresh = recovered.add({"kind": "monotonicity", "params": {"attribute": "a"}})
        assert int(fresh["id"].lstrip("m")) > int(kept["id"].lstrip("m"))
        recovered.close()

    def test_torn_tail_is_truncated(self, trained, tmp_path):
        path = tmp_path / "monitors.jsonl"
        _, monitors, kept = self._fire_one_alert(trained, path)
        last_seq = monitors._journal.last_seq
        monitors.close()
        good = path.read_bytes()
        path.write_bytes(good + b'{"seq": 99, "kind": "alert", "da')  # torn append

        journal = MonitorJournal(path)
        assert journal.last_seq == last_seq
        assert path.read_bytes() == good  # the tail was cut, nothing else
        journal.close()

    def test_mid_log_corruption_refuses_replay(self, trained, tmp_path):
        path = tmp_path / "monitors.jsonl"
        _, monitors, _ = self._fire_one_alert(trained, path)
        monitors.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        record = json.loads(lines[1])
        record["data"] = {"id": "tampered"}  # body no longer matches the crc
        lines[1] = json.dumps(record).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="corrupt monitor journal"):
            MonitorJournal(path)


class TestDurableCursor:
    def test_compaction_counts_truncated_cursor(self, trained, tmp_path):
        rng = np.random.default_rng(5)
        store = ArtifactStore(tmp_path / "store")
        session = create_tenant(
            store, "t", build_lewis(trained, make_table(seed_rows(rng, 40)))
        )
        monitors = MonitorSet(
            session, journal=MonitorJournal(store.monitor_journal_path("t"))
        )
        desc = monitors.add({"kind": "monotonicity", "params": {"attribute": "a"}})
        session.update({"insert": [{"a": 1, "b": 1, "c": 1}] * 5})
        checkpoint_session(store, session, "t")  # compacts the replayed range
        assert not session.log.cursor_valid(desc["cursor"])
        session.update({"insert": [{"a": 0, "b": 2, "c": 1}] * 5})
        monitors.refresh()
        state = monitors.get(desc["id"])
        assert state["truncated_cursors"] == 1
        assert state["cursor"] == session.log.last_seq
        assert state["batches_seen"] == 2  # seqs stay contiguous across compaction
        assert state["summary"] == rebuild_summary(session.lewis, monitors._monitors[desc["id"]]["spec"])
        monitors.close()
        session.close()
