"""Injected storage failures: every crash point recovers or refuses loudly.

Satellite contract for the fault-injection PR: under any injected
``OSError`` / torn write / fsync failure in ``DeltaLog.append``,
checkpoint compaction, or ``ArtifactStore`` writes, the store either
replays cleanly (acknowledged records only, sequence numbers intact) or
refuses with a typed error — it never loads corrupt state and never
silently drops acknowledged data.
"""

from __future__ import annotations

import errno
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults as faults
from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor import MonitorJournal
from repro.service.server import create_server
from repro.service.updates import TableDelta
from repro.store import ArtifactStore, DeltaLog, Registry, create_tenant
from repro.utils.exceptions import (
    CorruptArtifactError,
    DegradedError,
    StoreError,
)


def delta(insert=(), delete=()):
    return TableDelta(insert=tuple(insert), delete=tuple(delete))


ROW = {"a": 1, "b": 0}
APPEND_POINTS = ("wal.append.write", "wal.append.torn", "wal.append.fsync")


class TestWalAppendFaults:
    @pytest.mark.parametrize("point", APPEND_POINTS)
    def test_crash_point_degrades_then_heals(self, tmp_path, point):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        assert log.append(delta(insert=[ROW])) == 1

        with faults.plan({point: {"once": True}}):
            with pytest.raises(DegradedError):
                log.append(delta(delete=[0]))
            # Degraded mode is sticky: the next append refuses too, even
            # though the fault plan would no longer fire.
            assert log.degraded is not None
            with pytest.raises(DegradedError, match="degraded"):
                log.append(delta(delete=[0]))

        log.reopen()
        assert log.degraded is None
        # write/torn faults leave no complete record, so seq 2 is reused;
        # an fsync fault fails *after* the complete line hit the file, so
        # reopen adopts that record (crash-after-write-before-ack) and
        # the next append takes seq 3. Either way the history is clean.
        adopted = point == "wal.append.fsync"
        assert log.append(delta(delete=[0])) == (3 if adopted else 2)
        log.close()

        recovered = DeltaLog(path)
        seqs = [seq for seq, _d in recovered.replay()]
        assert seqs == ([1, 2, 3] if adopted else [1, 2])
        assert recovered.replay()[-1][1].delete == (0,)

    def test_torn_write_leaves_no_partial_record_after_reopen(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        with faults.plan({"wal.append.torn": {"once": True}}):
            with pytest.raises(DegradedError):
                log.append(delta(insert=[{"a": 2, "b": 3}]))
        # The torn half-record is on disk right now; reopen truncates it.
        log.reopen()
        log.close()
        fresh = DeltaLog(path)
        records = fresh.replay()
        assert len(records) == 1 and records[0][1].insert == (ROW,)

    def test_degraded_log_still_replays(self, tmp_path):
        # Read paths must survive a write-degraded log: that is the
        # "read-only degraded mode" half of the contract.
        log = DeltaLog(tmp_path / "t.jsonl")
        log.append(delta(insert=[ROW]))
        with faults.plan({"wal.append.fsync": {"once": True}}):
            with pytest.raises(DegradedError):
                log.append(delta(delete=[0]))
        # The acked record replays; the fsync-failed one may too (its
        # complete line is on disk) — what matters is nothing acked is
        # lost and reads keep working while appends refuse.
        replayed = [seq for seq, _d in log.replay()]
        assert replayed[0] == 1 and replayed == list(range(1, len(replayed) + 1))
        assert log.stats()["degraded"] is not None

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_appends=st.integers(1, 25),
        probability=st.floats(0.1, 0.6),
        point=st.sampled_from(APPEND_POINTS),
    )
    def test_acknowledged_appends_always_replay(
        self, tmp_path_factory, seed, n_appends, probability, point
    ):
        """Any seeded fault schedule: every acked append replays cleanly."""
        path = tmp_path_factory.mktemp("wal") / "t.jsonl"
        log = DeltaLog(path)
        acked: list[int] = []  # payload markers of acknowledged appends
        with faults.plan({point: {"probability": probability}}, seed=seed):
            for i in range(n_appends):
                attempt = delta(insert=[{"a": i, "b": seed % 7}])
                try:
                    log.append(attempt)
                    acked.append(i)
                except DegradedError:
                    log.reopen()  # heal; retry policy is the caller's
        log.close()

        recovered = DeltaLog(path)
        replayed = recovered.replay()
        markers = [d.insert[0]["a"] for _seq, d in replayed]
        # No acked record is ever lost...
        assert set(acked) <= set(markers)
        # ...the history is in submission order with no duplicates
        # (fsync-failed appends may legitimately replay: their complete
        # line reached the file before the failure)...
        assert markers == sorted(set(markers))
        # ...and sequence numbers are contiguous from 1.
        assert [seq for seq, _d in replayed] == list(range(1, len(markers) + 1))
        assert recovered.last_seq == len(markers)


class DiskFillsMidWrite:
    """A file handle whose write lands half the bytes, then hits ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestJournalTornWrite:
    def test_torn_append_degrades_and_recovery_keeps_acked_records(
        self, tmp_path
    ):
        path = tmp_path / "monitors.jsonl"
        journal = MonitorJournal(path)
        assert journal.append("register", {"id": "m1"}) == 1
        acked = path.read_bytes()

        journal._fh = DiskFillsMidWrite(journal._fh)
        with pytest.raises(DegradedError):
            journal.append("register", {"id": "m2"})
        assert path.read_bytes() != acked  # half a record is on disk
        # Degraded mode is sticky: nothing lands on top of the torn bytes.
        with pytest.raises(DegradedError, match="degraded"):
            journal.append("register", {"id": "m3"})
        journal.close()

        recovered = MonitorJournal(path)
        assert path.read_bytes() == acked  # the torn tail was cut
        assert [(r["seq"], r["data"]) for r in recovered.replay()] == [
            (1, {"id": "m1"})
        ]
        assert recovered.append("register", {"id": "m2"}) == 2
        recovered.close()


def make_lewis(n: int = 120) -> Lewis:
    rng = np.random.default_rng(11)
    rows = {"a": rng.integers(0, 3, n).tolist(), "b": rng.integers(0, 3, n).tolist()}
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, ["a", "b"], "y", seed=0)
    return Lewis(
        model,
        data=table.select(["a", "b"]),
        attributes=["a", "b"],
        positive_outcome=1,
        infer_orderings=False,
    )


def call(url: str, payload: dict | None = None):
    """(status, body, headers) of one request, errors included."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class TestJournalDegradedOverHttp:
    def test_torn_journal_write_answers_503_until_reattached(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        create_tenant(store, "acme", make_lewis()).close()
        registry = Registry(store, background=True)
        server = create_server(registry=registry, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}/v1"
        spec = {"kind": "monotonicity", "params": {"attribute": "a"}}
        try:
            status, first, _ = call(f"{base}/acme/monitors", spec)
            assert status == 200, first

            with faults.plan({"journal.append.torn": {"once": True}}):
                refused = [call(f"{base}/acme/monitors", spec)]
            # the fault fired once; the journal stays degraded after it
            refused.append(call(f"{base}/acme/monitors", spec))
            for status, body, headers in refused:
                assert status == 503, body
                assert body["error"].startswith("store degraded: ")
                assert body["request_id"]
                assert headers["Retry-After"]

            # re-attaching the tenant reopens the journal: the torn bytes
            # are cut and every acknowledged registration replays
            status, _, _ = call(f"{base}/registry/acme/evict", {})
            assert status == 200
            status, listing, _ = call(f"{base}/acme/monitors")
            assert status == 200, listing
            assert [m["id"] for m in listing["monitors"]] == [first["id"]]
            status, second, _ = call(f"{base}/acme/monitors", spec)
            assert status == 200, second
        finally:
            server.shutdown()
            server.server_close()
            server.monitors.close()
            registry.close()


class TestCompactionFaults:
    @pytest.mark.parametrize(
        "point", ["wal.compact.fsync", "wal.compact.replace"]
    )
    def test_failed_compaction_is_loud_but_harmless(self, tmp_path, point):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        for i in range(4):
            log.append(delta(insert=[{"a": i, "b": 0}]))

        with faults.plan({point: {"once": True}}):
            with pytest.raises(StoreError, match="remains authoritative"):
                log.truncate_through(2)
        # The uncompacted log is untouched: every record still replays.
        assert [seq for seq, _d in log.replay()] == [1, 2, 3, 4]
        # And appends still work — compaction failure is not degradation.
        assert log.append(delta(delete=[0])) == 5

        # Without the fault the same compaction succeeds.
        assert log.truncate_through(2) == 3
        assert [seq for seq, _d in log.replay()] == [3, 4, 5]
        log.close()


class TestArtifactStoreFaults:
    @pytest.mark.parametrize(
        "point",
        ["store.atomic_write", "store.atomic_write.torn", "store.atomic_write.fsync"],
    )
    def test_failed_put_never_exposes_an_object(self, tmp_path, point):
        store = ArtifactStore(tmp_path)
        payload = b"x" * 256
        with faults.plan({point: {"once": True}}):
            with pytest.raises(StoreError, match="cannot store object"):
                store.put_bytes(payload)
        # The object address must be absent, not half-written: a torn
        # temp file is fine, a torn *object* would poison every reader.
        import hashlib

        digest = hashlib.sha256(payload).hexdigest()
        assert not store.has(digest)
        with pytest.raises(StoreError, match="no object"):
            store.get_bytes(digest)
        # The store heals with no intervention: the retry lands.
        assert store.put_bytes(payload) == digest
        assert store.get_bytes(digest) == payload

    def test_corrupt_object_refused_on_read(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes(b"precious state")
        path = store._object_path(digest)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="refusing to load"):
            store.get_bytes(digest)

    def test_existing_object_survives_failed_rewrite(self, tmp_path):
        # put_bytes is idempotent and skips existing objects, so inject
        # into a manifest write instead: the previous manifest content
        # must survive a failed atomic_write of its successor.
        store = ArtifactStore(tmp_path)
        store.write_manifest("acme", {"wal_seq": 1})
        with faults.plan({"store.atomic_write.torn": {"once": True}}):
            with pytest.raises(StoreError, match="cannot write manifest"):
                store.write_manifest("acme", {"wal_seq": 2})
        # The failed successor never became visible: the latest manifest
        # is still the old, complete one.
        assert store.manifest("acme")["wal_seq"] == 1
        assert store.snapshots("acme") == ["00000001"]
        store.write_manifest("acme", {"wal_seq": 2})
        assert store.manifest("acme")["wal_seq"] == 2
