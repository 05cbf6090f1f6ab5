"""DeltaLog: durability, sequencing, torn tails, compaction, write-ahead."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service.updates import TableDelta
from repro.store import DeltaLog, DurableSession
from repro.utils.exceptions import DomainError, StoreError


def delta(insert=(), delete=()):
    return TableDelta(insert=tuple(insert), delete=tuple(delete))


ROW = {"a": 1, "b": 0}


class TestDeltaLog:
    def test_append_assigns_sequence_and_survives_reopen(self, tmp_path):
        log = DeltaLog(tmp_path / "t.jsonl")
        assert log.append(delta(insert=[ROW])) == 1
        assert log.append(delta(delete=[3])) == 2
        log.close()

        reopened = DeltaLog(tmp_path / "t.jsonl")
        assert reopened.last_seq == 2
        records = reopened.replay()
        assert [seq for seq, _d in records] == [1, 2]
        assert records[0][1].insert == (ROW,)
        assert records[1][1].delete == (3,)
        assert reopened.replay(after=1) == records[1:]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        log.append(delta(delete=[0]))
        log.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "insert": [], "del')  # crash mid-write

        recovered = DeltaLog(path)
        assert recovered.last_seq == 2
        assert len(recovered.replay()) == 2
        # the torn bytes are gone: a fresh append continues cleanly
        assert recovered.append(delta(delete=[1])) == 3
        assert len(DeltaLog(path).replay()) == 3

    def test_unterminated_final_line_is_torn_even_if_valid_json(self, tmp_path):
        """A complete-looking JSON record without its newline was never
        acknowledged (the newline is part of the fsynced write); parsing
        it would let the next append concatenate onto the same line."""
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        log.close()
        content = path.read_bytes()
        path.write_bytes(content + content[:-1])  # record 2 sans newline

        recovered = DeltaLog(path)
        assert recovered.last_seq == 1  # torn tail discarded
        assert recovered.append(delta(delete=[0])) == 2
        assert [seq for seq, _d in DeltaLog(path).replay()] == [1, 2]

    def test_non_json_values_rejected_before_acknowledgement(self, tmp_path):
        log = DeltaLog(tmp_path / "t.jsonl")
        assert log.append(delta(insert=[{"a": np.int64(1), "b": 0}])) == 1
        record = log.replay()[0][1]
        assert record.insert[0]["a"] == 1  # numpy collapsed to python int
        with pytest.raises(StoreError, match="JSON"):
            log.append(delta(insert=[{"a": object(), "b": 0}]))
        assert log.last_seq == 1  # the bad record was never assigned a seq

    def test_mid_log_corruption_refuses_replay(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        log.append(delta(delete=[0]))
        log.close()
        lines = path.read_bytes().splitlines()
        lines[0] = lines[0][:-5] + b'bad"}'
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StoreError, match="corrupt WAL record"):
            DeltaLog(path)

    def test_corrupt_terminated_final_record_refuses_recovery(self, tmp_path):
        """A newline-terminated record can never be a torn write, so a
        bad final record is corruption of acknowledged data — it must
        refuse recovery, not silently truncate."""
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        log.append(delta(delete=[0]))
        log.close()
        lines = path.read_bytes().splitlines()
        record = json.loads(lines[1])
        record["delete"] = [9]  # bit-flip in the LAST record, stale crc
        lines[1] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StoreError, match="corrupt WAL record"):
            DeltaLog(path)

    def test_bit_flip_in_payload_detected_by_crc(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        log.append(delta(insert=[ROW]))
        log.append(delta(delete=[0]))
        log.close()
        lines = path.read_bytes().splitlines()
        record = json.loads(lines[0])
        record["delete"] = [7]  # silent mutation, stale crc
        lines[0] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StoreError, match="corrupt WAL record"):
            DeltaLog(path).replay()

    def test_truncate_through_keeps_tail_and_sequence(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        for i in range(4):
            log.append(delta(delete=[i]))
        assert log.truncate_through(2) == 2
        assert [seq for seq, _d in log.replay()] == [3, 4]
        # numbering continues from the in-memory high-water mark
        assert log.append(delta(delete=[9])) == 5

    def test_ensure_floor_restores_continuity_after_compaction(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        for i in range(3):
            log.append(delta(delete=[i]))
        log.truncate_through(3)  # checkpoint covered everything
        log.close()

        # a new process reads the durable floor marker: the sequence
        # survives without the manifest's help, and ensure_floor is a
        # no-op confirmation rather than the only safety net
        fresh = DeltaLog(path)
        assert fresh.last_seq == 3
        fresh.ensure_floor(3)
        assert fresh.append(delta(delete=[0])) == 4

    def test_compacted_log_reports_cursor_geometry(self, tmp_path):
        # regression: before the durable floor marker, a *fresh* open of
        # a fully-compacted log forgot its history — cursor_valid(0)
        # answered True and first_live_seq restarted at 1, so a replica
        # could replay a hole without noticing.
        path = tmp_path / "t.jsonl"
        log = DeltaLog(path)
        for i in range(3):
            log.append(delta(delete=[i]))
        log.truncate_through(3)
        log.close()

        fresh = DeltaLog(path)
        assert fresh.cursor_valid(0) is False
        assert fresh.cursor_valid(3) is True
        assert fresh.first_live_seq == 4
        assert fresh.stats()["compacted_through"] == 3
        # old-format logs (no marker) keep their pre-marker behavior
        bare = tmp_path / "old.jsonl"
        old = DeltaLog(bare)
        old.append(delta(delete=[0]))
        old.close()
        reopened = DeltaLog(bare)
        assert reopened.cursor_valid(0) is True
        assert reopened.first_live_seq == 1

    def test_stats(self, tmp_path):
        log = DeltaLog(tmp_path / "t.jsonl")
        log.append(delta(insert=[ROW]))
        stats = log.stats()
        assert stats["last_seq"] == 1
        assert stats["records"] == 1
        assert stats["bytes"] > 0


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


@pytest.fixture()
def durable(tmp_path):
    rng = np.random.default_rng(5)
    n = 120
    table = Table.from_dict(
        {"a": rng.integers(0, 3, n).tolist(), "b": rng.integers(0, 3, n).tolist()},
        domains={"a": [0, 1, 2], "b": [0, 1, 2]},
    )
    lewis = Lewis(
        tiny_model,
        data=table,
        feature_names=["a", "b"],
        attributes=["a", "b"],
        infer_orderings=False,
    )
    session = DurableSession(lewis, DeltaLog(tmp_path / "wal.jsonl"))
    yield session
    session.close()


class TestDurableSession:
    def test_update_is_logged_before_applied(self, durable):
        response = durable.update({"insert": [{"a": 0, "b": 1}], "delete": [2]})
        assert response["result"]["wal_seq"] == 1
        records = durable.log.replay()
        assert len(records) == 1
        assert records[0][1].insert == ({"a": 0, "b": 1},)
        assert len(durable.lewis.data) == 120  # 1 in, 1 out

    def test_invalid_update_never_reaches_the_log(self, durable):
        with pytest.raises(DomainError):
            durable.update({"insert": [{"a": 99, "b": 0}]})
        with pytest.raises(IndexError):
            durable.update({"delete": [10_000]})
        assert durable.log.last_seq == 0
        assert durable.log.replay() == []

    def test_empty_delta_not_logged(self, durable):
        durable.update({"insert": [], "delete": []})
        assert durable.log.last_seq == 0

    def test_apply_logged_skips_the_log(self, durable):
        durable.apply_logged(TableDelta(insert=({"a": 0, "b": 0},)))
        assert durable.log.last_seq == 0
        assert len(durable.lewis.data) == 121

    def test_stats_include_wal(self, durable):
        assert durable.stats()["wal"]["path"].endswith("wal.jsonl")
