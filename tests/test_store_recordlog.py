"""On-disk format pin for the record logs: old files open, new bytes match.

The literal lines below were written by an earlier build of
:class:`DeltaLog` and :class:`MonitorJournal`.  Existing stores must open
with the same sequence geometry and replay the same values, and
appending the same records to an empty log must write the same bytes,
digests included.
"""

from __future__ import annotations

import numpy as np

from repro.monitor import MonitorJournal
from repro.service.updates import TableDelta
from repro.store import DeltaLog

# a checkpoint compacted seq 1 away: a floor marker, then one record with
# a request id and one without
WAL_BYTES = (
    b'{"crc":"166b1f23b682","floor":1}\n'
    b'{"crc":"b13ee9b1f89c","delete":[0,3],"insert":[],'
    b'"request_id":"4bf92f3577b34da6","seq":2}\n'
    b'{"crc":"f94280521296","delete":[1],"insert":[{"a":2,"city":"Z\\u00fcrich"}],'
    b'"seq":3}\n'
)

JOURNAL_BYTES = (
    b'{"crc":"c1dc643f7efd","data":{"baseline":{"necessity":0.30000000000000004},'
    b'"cursor":3,"id":"m1","request_id":"a1b2c3d4e5f60718","spec":{"kind":"score",'
    b'"metric":"necessity","threshold":0.05}},"kind":"register","seq":1}\n'
    b'{"crc":"b9bec94d5310","data":{"alert":{"baseline":0.30000000000000004,'
    b'"detector":"threshold","direction":"up","magnitude":0.12,"metric":"necessity",'
    b'"monitor_id":"m1","table_version":4,"value":0.42,"wal_seq":4},'
    b'"states":{"threshold":{"fired":true}}},"kind":"alert","seq":2}\n'
    b'{"crc":"9947f5fb38de","data":{"id":"m1"},"kind":"remove","seq":3}\n'
)

WAL_APPENDS = [
    (TableDelta(insert=({"a": 1, "city": "Lyon"},)), None),
    (TableDelta(delete=(0, 3)), "4bf92f3577b34da6"),
    # numpy scalars collapse to their Python spelling on disk
    (TableDelta(insert=({"a": np.int64(2), "city": "Zürich"},), delete=(1,)), None),
]

JOURNAL_RECORDS = [
    (
        "register",
        {
            "id": "m1",
            "spec": {"kind": "score", "metric": "necessity", "threshold": 0.05},
            "baseline": {"necessity": 0.1 + 0.2},
            "cursor": 3,
            "request_id": "a1b2c3d4e5f60718",
        },
    ),
    (
        "alert",
        {
            "alert": {
                "monitor_id": "m1",
                "detector": "threshold",
                "metric": "necessity",
                "value": 0.42,
                "baseline": 0.30000000000000004,
                "magnitude": 0.12,
                "direction": "up",
                "wal_seq": 4,
                "table_version": 4,
            },
            "states": {"threshold": {"fired": True}},
        },
    ),
    ("remove", {"id": "m1"}),
]


class TestWalFormat:
    def test_existing_log_opens_with_the_same_geometry(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(WAL_BYTES)
        log = DeltaLog(path)
        assert path.read_bytes() == WAL_BYTES  # opening rewrote nothing
        assert log.last_seq == 3
        assert log.first_live_seq == 2
        assert log.stats()["compacted_through"] == 1
        assert log.cursor_valid(0) is False
        assert log.cursor_valid(1) is True
        assert log.replay() == [
            (2, TableDelta(delete=(0, 3))),
            (3, TableDelta(insert=({"a": 2, "city": "Zürich"},), delete=(1,))),
        ]
        assert [r.get("request_id") for r in log.records()] == [
            "4bf92f3577b34da6", None,
        ]
        assert log.replay(after=2) == [
            (3, TableDelta(insert=({"a": 2, "city": "Zürich"},), delete=(1,)))
        ]
        assert log.append(TableDelta(delete=(0,))) == 4
        log.close()

    def test_appending_the_same_records_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = DeltaLog(path)
        for delta, request_id in WAL_APPENDS:
            log.append(delta, request_id=request_id)
        log.truncate_through(1)
        log.close()
        assert path.read_bytes() == WAL_BYTES


class TestJournalFormat:
    def test_existing_journal_opens_and_replays(self, tmp_path):
        path = tmp_path / "monitors.jsonl"
        path.write_bytes(JOURNAL_BYTES)
        journal = MonitorJournal(path)
        assert path.read_bytes() == JOURNAL_BYTES
        assert journal.last_seq == 3
        assert journal.replay() == [
            {"seq": seq, "kind": kind, "data": data}
            for seq, (kind, data) in enumerate(JOURNAL_RECORDS, start=1)
        ]
        assert [r["seq"] for r in journal.replay(after=2)] == [3]
        assert journal.append("remove", {"id": "m2"}) == 4
        journal.close()

    def test_appending_the_same_records_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "monitors.jsonl"
        journal = MonitorJournal(path)
        for kind, data in JOURNAL_RECORDS:
            journal.append(kind, data)
        journal.close()
        assert path.read_bytes() == JOURNAL_BYTES
