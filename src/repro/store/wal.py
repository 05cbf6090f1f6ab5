"""Write-ahead delta log and the durable session that writes through it.

Snapshots capture expensive standing state (model, encoded table, count
tensors); the write-ahead log captures everything *since* the snapshot
as a sequence of cheap :class:`~repro.service.updates.TableDelta`
records.  Recovery is the classic pairing: load the latest snapshot,
replay the log tail — the same shape as incremental view maintenance
under updates (Berkholz et al., see PAPERS.md), where the delta stream
is the compact representation of change.

:class:`DeltaLog` is a :class:`~repro.store.recordlog.RecordLog`, which
owns the line format, fsync'd appends, torn-tail recovery, corruption
refusal, compaction and degraded mode.  This module adds only the
codec: one record per delta, with fields ``insert`` (decoded rows),
``delete`` (row indices) and, when the writing request was traced,
``request_id``.

:class:`DurableSession` wraps :class:`~repro.service.session
.ExplainerSession` with write-*ahead* semantics: an update is validated
against the live schema, appended to the log, and only then applied to
the engine, both in one turn of the session's lane.  The crash window is
therefore safe in both directions — a logged-but-unapplied delta is
replayed on restore, and an unlogged delta was never acknowledged — and
a live session never lags its own log: an update the lane refuses
(queue full, deadline passed) was never logged.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

import repro.faults as _faults
from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.service.session import ExplainerSession, UpdateRequest, jsonable
from repro.service.updates import TableDelta
from repro.store.recordlog import RecordLog
from repro.utils.exceptions import StoreError

_WAL_APPENDS = _obs.get_registry().counter(
    "repro_wal_appends_total", "Deltas durably appended to write-ahead logs."
)
_WAL_FSYNC_SECONDS = _obs.get_registry().histogram(
    "repro_wal_fsync_seconds",
    "Write + flush + fsync wall time of one WAL append.",
)


def _delta(record: Mapping[str, Any]) -> TableDelta:
    """Decode one verified record's delta."""
    return TableDelta(insert=tuple(record["insert"]), delete=tuple(record["delete"]))


class DeltaLog(RecordLog):
    """Append-only, fsync'd JSONL write-ahead log of table deltas.

    One log per tenant; :meth:`ArtifactStore.wal_path` hands out the
    conventional path.
    """

    FAULTS = "wal"
    NAME = "WAL"

    @staticmethod
    def _check(record: dict) -> None:
        _delta(record)  # a WAL record is one that decodes to a delta

    def replay(self, after: int = 0) -> list[tuple[int, TableDelta]]:
        """Records with sequence number greater than ``after``, in order."""
        return [(record["seq"], _delta(record)) for record in self.records(after)]

    def replay_annotated(
        self, after: int = 0
    ) -> list[tuple[int, TableDelta, str | None]]:
        """Like :meth:`replay` but including each record's request id.

        The id is ``None`` for records written before the field existed.
        """
        return [
            (record["seq"], _delta(record), record.get("request_id"))
            for record in self.records(after)
        ]

    def append(self, delta: TableDelta, request_id: str | None = None) -> int:
        """Durably append one delta; returns its sequence number.

        The record is on disk (flushed + fsynced) before this returns —
        the write-ahead guarantee the durable session relies on.  An I/O
        failure raises :class:`DegradedError` and leaves the log
        read-only degraded until :meth:`reopen`.

        Numpy scalars collapse to their Python equivalents (the session
        encodes both spellings to the same codes, so replay is faithful).
        Values JSON cannot represent raise :class:`StoreError` *before*
        the record is acknowledged — a silent ``str()`` coercion would
        replay as a different value than the live session applied.
        ``request_id`` (the originating trace id) is stored, and covered
        by the digest, only when present, so logs written before the
        field existed still verify.
        """
        fields = {
            "insert": jsonable([dict(row) for row in delta.insert]),
            "delete": [int(index) for index in delta.delete],
        }
        if request_id is not None:
            fields["request_id"] = str(request_id)
        seq, elapsed = self._append(fields)
        _WAL_APPENDS.inc()
        _WAL_FSYNC_SECONDS.observe(elapsed)
        _tracing.record_span(
            _tracing.current_context(),
            "wal_fsync",
            elapsed * 1e3,
            tags={"seq": seq},
        )
        return seq


class DurableSession(ExplainerSession):
    """An explainer session whose updates are write-ahead logged.

    Construction mirrors :class:`ExplainerSession` plus ``log``, the
    :class:`DeltaLog` updates write through.  Every accepted update is on
    disk before it touches the engine, so a session restored from the
    latest snapshot plus the log tail reproduces this session's state
    bit for bit (see :func:`repro.store.snapshot.restore_session`).
    """

    def __init__(self, lewis, log: DeltaLog, **kwargs):
        super().__init__(lewis, **kwargs)
        self.log = log
        self._wal_lock = threading.Lock()
        # Updates log and apply in one lane turn; recovery replays
        # records the log already holds.
        self._batcher.register("update", self._stamped(self._do_logged_update))
        self._batcher.register("replay", self._stamped(self._do_update))

    @property
    def update_lock(self) -> threading.Lock:
        """Lock held for the full validate → log → apply of every update.

        Snapshots acquire it so a checkpoint can never capture a torn
        mid-update state, or record a ``wal_seq`` whose delta the
        serialized table does not yet reflect (which compaction would
        then silently drop).
        """
        return self._wal_lock

    def update(self, delta: TableDelta | Mapping[str, Any]) -> dict:
        """Validate, write-ahead log, then apply one delta.

        Validation (schema coverage, domain membership, delete bounds)
        happens *before* the append so the log only ever contains deltas
        that will apply cleanly on replay. The lock serializes loggers so
        log order is apply order.
        """
        if not isinstance(delta, TableDelta):
            delta = TableDelta.from_json(delta)
        with self._wal_lock:
            self._validate(delta)
            # The record remembers which request wrote it, so a WAL
            # entry can be joined back to its trace and HTTP response.
            return self._updated(
                "update", (delta, _tracing.current_trace_id(), None)
            )

    def _do_logged_update(self, job: tuple) -> dict:
        """Lane handler: append ``(delta, request_id, seq)`` to the log, apply it.

        One lane turn for both steps: a logged delta is always applied,
        whatever the request's deadline or the queue's length.  ``seq``,
        when given, is where a shipped record must land in this log.
        """
        delta, request_id, seq = job
        if delta.is_empty:
            written = self.log.last_seq
        else:
            written = self.log.append(delta, request_id=request_id)
        if seq is not None and written != seq:
            raise StoreError(
                f"replication diverged: local append landed on seq "
                f"{written}, leader shipped {seq}"
            )
        result = self._do_update(UpdateRequest(delta=delta))
        result["wal_seq"] = written
        return result

    def _validate(self, delta: TableDelta) -> None:
        if delta.insert:
            # encodes against live domains; DomainError on unknown labels
            self.lewis.data.encode_rows(list(delta.insert))
        n = len(self.lewis.data)
        for index in delta.delete:
            if not 0 <= int(index) < n:
                raise IndexError(f"delete index {index} outside [0, {n})")

    def apply_logged(self, delta: TableDelta | Mapping[str, Any]) -> dict:
        """Apply a delta that is already in the log (recovery replay)."""
        if not isinstance(delta, TableDelta):
            delta = TableDelta.from_json(delta)
        return self._updated("replay", UpdateRequest(delta=delta))

    def apply_replicated(
        self,
        seq: int,
        delta: TableDelta | Mapping[str, Any],
        request_id: str | None = None,
    ) -> dict:
        """Apply one shipped WAL record on a follower replica.

        The leader assigned ``seq``; the follower must reproduce the
        leader's log bit for bit, so the record is validated, appended to
        the *local* log (asserting the local append lands on the shipped
        sequence number), and applied through the normal maintenance
        path — all under the update lock, exactly like a leader write.

        Idempotent against redelivery: a record at or below the local
        ``last_seq`` is acknowledged as a duplicate without touching
        anything.  A record that would skip ahead raises
        :class:`StoreError` — the shipping stream has a gap (dropped
        batch, or compaction outran the cursor) and the tailer must
        re-poll or resync from a snapshot rather than apply out of order.
        """
        if not isinstance(delta, TableDelta):
            delta = TableDelta.from_json(delta)
        seq = int(seq)
        with self._wal_lock:
            last = self.log.last_seq
            if seq <= last:
                return {
                    "applied": False,
                    "duplicate": True,
                    "result": {"wal_seq": last},
                }
            if seq != last + 1:
                raise StoreError(
                    f"replication gap: shipped seq {seq} but the local log "
                    f"ends at {last}; re-poll the leader or resync from a "
                    "snapshot"
                )
            _faults.inject(
                "repl.apply.crash",
                lambda: StoreError(
                    f"injected replication apply crash before seq {seq}"
                ),
            )
            self._validate(delta)
            response = self._updated("update", (delta, request_id, seq))
        response["applied"] = True
        return response

    def retire(self) -> None:
        """Eviction teardown: unregister the collector and *seal* the log.

        Cheap enough to run under the registry lock.  A retired session
        still answers read requests held by in-flight callers, but any
        late ``update`` through a stale reference fails loudly instead
        of appending to a log whose ownership has passed to the tenant's
        next restored session.
        """
        super().close()
        self.log.seal()

    def close(self) -> None:
        """Unregister the collector and release the log handle."""
        super().close()
        self.log.close()

    def stats(self) -> dict:
        """Session statistics plus the write-ahead log counters."""
        out = super().stats()
        out["wal"] = self.log.stats()
        return out
