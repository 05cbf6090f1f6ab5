"""Durable append-only journal for monitor registrations and alerts.

The monitor subsystem's external contract is its *history*: which
monitors were registered, against which baselines, and which alerts
fired at which WAL sequence numbers. Following the black-box
history-checking idea (arXiv 2301.07313 — validate a client-visible
history, not the implementation), that history is written to a
:class:`~repro.store.recordlog.RecordLog`, the same durable record log
under the :class:`~repro.store.wal.DeltaLog`; that module owns the line
format, fsync'd appends, torn-tail recovery, corruption refusal and
read-only degraded mode.  This module adds only the codec: each record
has a ``kind`` and a ``data`` object.

Record kinds (the ``kind`` field):

``register``
    A monitor was created — carries the full spec and its baseline
    summary, so recovery can resume detection without recomputing the
    reference point.
``remove``
    A monitor was deleted.
``alert``
    A drift detector fired — carries the typed alert payload plus the
    detector state *after* the alert, so CUSUM accumulators resume
    from their last externally visible value.

Replaying the journal therefore reconstructs the full monitor set (and
its alert history) after a crash or an eviction/restore cycle.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.store.recordlog import RecordLog

KINDS = ("register", "remove", "alert")


class MonitorJournal(RecordLog):
    """Append-only, fsync'd JSONL journal of monitor lifecycle records."""

    FAULTS = "journal"
    NAME = "monitor journal"

    @staticmethod
    def _check(record: dict) -> None:
        if record["kind"] not in KINDS or "data" not in record:
            raise ValueError("not a monitor journal record")

    def replay(self, after: int = 0) -> list[dict]:
        """Records (``seq``, ``kind``, ``data``) after ``after``, in order."""
        return self.records(after)

    def append(self, kind: str, data: Mapping[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        An I/O failure raises :class:`DegradedError`; the journal then
        refuses appends until it is reopened.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        return self._append({"kind": kind, "data": dict(data)})[0]


__all__ = ["KINDS", "MonitorJournal"]
