"""Durable append-only record log: the discipline under every JSONL log.

:class:`RecordLog` is a file of JSON lines.  Each record line carries a
strictly increasing sequence number ``seq`` and a digest ``crc``: the
first 12 hex digits of the sha1 of the record's canonical JSON (sorted
keys, compact separators) without ``crc`` itself.  An append writes the
whole line, newline last, in one write, then flushes and fsyncs before
it returns, so an acknowledged record survives a crash.  Subclasses add
only a record codec and the names their fault points and error messages
use: :class:`~repro.store.wal.DeltaLog` (table deltas) and
:class:`~repro.monitor.journal.MonitorJournal` (monitor history).

**Torn tail.**  Only newline-terminated lines are records.  A crash
mid-append leaves an unterminated final chunk that was never
acknowledged, so opening the log, and :meth:`RecordLog.reopen`, cut it
off.  The chunk is torn even when it parses as complete JSON: keeping
it would let the next append run onto the same line, and a later
recovery would then destroy both records.

**Corruption.**  A terminated line can never be a torn write, because
the newline is the last byte of the single append write.  A terminated
line that does not parse, fails its digest, does not decode, or does
not raise the sequence is therefore damage to acknowledged data, even
in final position.  The log refuses to open (:class:`StoreError`)
instead of replaying around it and silently diverging.

**Floor marker.**  :meth:`RecordLog.truncate_through` drops the records
a checkpoint already covers and starts the rewritten file with a marker
line ``{"crc": ..., "floor": N}``.  A fresh open of the file, even a
fully compacted one holding no records, then still knows numbering is
past ``N`` and that cursor 0 points into dropped history.

**Degraded mode.**  An I/O failure anywhere in the write, flush and
fsync of an append puts the log in sticky read-only degraded mode: the
failed record was never acknowledged, the file may now end in torn
bytes, and appending after them would interleave damage into
acknowledged history.  Reads keep working; appends raise
:class:`DegradedError` until :meth:`RecordLog.reopen`, or a fresh
instance, re-verifies the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping

import repro.faults as _faults
from repro.store.artifacts import _fsync_dir
from repro.utils.exceptions import DegradedError, StoreError


def _digest(fields: Mapping[str, Any]) -> str:
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


class RecordLog:
    """Append-only, fsync'd JSONL log of sequence-numbered records.

    Opening ``path`` (created on first append) verifies the whole file,
    cuts a torn tail and refuses corruption.  Records are read back as
    dicts holding ``seq`` and the codec's fields, without ``crc``.
    """

    #: set by each subclass: its fault points are
    #: ``<FAULTS>.append.{write,torn,fsync}`` and
    #: ``<FAULTS>.compact.{fsync,replace}``
    FAULTS: str
    #: set by each subclass: what its error messages call the log
    NAME: str

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None
        self._sealed = False
        self._degraded: str | None = None
        self._appended = 0
        self._floor = 0
        self._last_seq = 0
        self._load()

    @staticmethod
    def _check(record: dict) -> None:
        """Codec hook: raise ``KeyError``, ``TypeError`` or ``ValueError``
        when a digest-verified record is not one this log writes."""

    # -- reading -----------------------------------------------------------

    @classmethod
    def _scan(cls, path: Path) -> tuple[list[dict], int, int, int]:
        """Parse the file: (records, floor, valid bytes, total bytes).

        ``valid bytes`` runs through the last terminated line; anything
        beyond it is the torn tail.  ``floor`` is the highest floor
        marker (0 for a log never compacted).
        """
        if not path.exists():
            return [], 0, 0, 0
        raw = path.read_bytes()
        records: list[dict] = []
        offset = last_seq = floor = 0
        *terminated, _tail = raw.split(b"\n")
        for line in terminated:
            if line.strip():
                try:
                    record = json.loads(line)
                    intact = record.pop("crc") == _digest(record)
                    if "seq" in record:
                        cls._check(record)
                        seq = int(record["seq"])
                        intact = intact and seq > last_seq
                    else:  # a floor marker, written by truncate_through
                        floor = max(floor, int(record["floor"]))
                        seq = max(last_seq, floor)
                except (AttributeError, KeyError, TypeError, ValueError):
                    intact = False
                if not intact:
                    raise StoreError(
                        f"corrupt {cls.NAME} record at byte {offset} of "
                        f"{path}; refusing to replay an unreliable history"
                    )
                if "seq" in record:
                    records.append(record)
                last_seq = seq
            offset += len(line) + 1  # + the newline
        return records, floor, offset, len(raw)

    @classmethod
    def read(cls, path: str | Path, after: int = 0) -> list[dict]:
        """Verified records of the log at ``path`` with seq > ``after``.

        Only reads: it neither cuts a torn tail nor creates the file, so
        it is safe on a log this process does not own, such as a dead
        leader's WAL.
        """
        return [r for r in cls._scan(Path(path))[0] if r["seq"] > after]

    def records(self, after: int = 0) -> list[dict]:
        """This log's records with sequence number greater than ``after``."""
        with self._lock:
            return self.read(self.path, after)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent acknowledged record."""
        return self._last_seq

    @property
    def first_live_seq(self) -> int:
        """Sequence number of the oldest record still in the file.

        Checkpoint compaction silently drops the replayable prefix, so a
        tailing client holding cursor ``c`` can only trust
        ``records(after=c)`` to be gap-free when ``c >= first_live_seq - 1``.
        An empty (or fully compacted) log exposes ``last_seq + 1`` — the
        next sequence number that could ever be replayed — so the same
        inequality works without special-casing emptiness.
        """
        with self._lock:
            if self._records:
                return self._first_seq
            return self._last_seq + 1

    def cursor_valid(self, cursor: int) -> bool:
        """Whether ``records(after=cursor)`` returns a gap-free tail.

        False means compaction already dropped records the cursor never
        saw; the client must resnapshot (re-read full state) instead of
        replaying, or it would silently miss records.
        """
        return int(cursor) >= self.first_live_seq - 1

    def ensure_floor(self, seq: int) -> None:
        """Raise the sequence floor to at least ``seq``.

        After checkpoint compaction the log file alone no longer knows
        how far numbering has advanced (the prefix is gone); the snapshot
        manifest does. Recovery calls this with the manifest's
        ``wal_seq`` so post-restore appends continue the sequence instead
        of reusing numbers the manifest already covers.
        """
        with self._lock:
            self._last_seq = max(self._last_seq, int(seq))

    # -- writing -----------------------------------------------------------

    def _line(self, fields: Mapping[str, Any]) -> bytes:
        """One record's on-disk line: canonical JSON plus digest, newline last."""
        try:
            record = {**fields, "crc": _digest(fields)}
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"{self.NAME} record contains values JSON cannot represent "
                f"faithfully: {exc}"
            ) from exc
        return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        ) + b"\n"

    def _append(self, fields: Mapping[str, Any]) -> tuple[int, float]:
        """Durably append one record; returns (its seq, write-to-fsync seconds).

        The record is on disk (flushed + fsynced) before this returns.
        An I/O failure anywhere in the write → flush → fsync sequence
        enters read-only degraded mode and raises :class:`DegradedError`,
        as does every later append until :meth:`reopen`.
        """
        with self._lock:
            if self._sealed:
                raise StoreError(
                    f"{self.NAME} {self.path} is sealed (its session was "
                    "evicted); re-fetch the tenant from the registry"
                )
            if self._degraded is not None:
                raise DegradedError(
                    f"{self.NAME} {self.path} is read-only degraded after an "
                    f"I/O failure ({self._degraded}); reopen() to heal"
                )
            seq = self._last_seq + 1
            line = self._line({**fields, "seq": seq})
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    created = not self.path.exists()
                    self._fh = open(self.path, "ab")
                    if created:
                        # the record's durability includes the file's own
                        # directory entry — fsync the parent once at creation
                        _fsync_dir(self.path.parent)
                write_started = time.perf_counter()
                _faults.inject(
                    f"{self.FAULTS}.append.write",
                    lambda: OSError(
                        f"injected {self.NAME} write failure: {self.path}"
                    ),
                )
                if _faults.fires(f"{self.FAULTS}.append.torn"):
                    # stage the damage a crash mid-write leaves behind:
                    # half a record, no newline, then the failure
                    self._fh.write(line[: max(1, len(line) // 2)])
                    self._fh.flush()
                    raise OSError(f"injected torn {self.NAME} write: {self.path}")
                self._fh.write(line)
                self._fh.flush()
                _faults.inject(
                    f"{self.FAULTS}.append.fsync",
                    lambda: OSError(
                        f"injected {self.NAME} fsync failure: {self.path}"
                    ),
                )
                os.fsync(self._fh.fileno())
            except OSError as exc:
                self._degraded = str(exc)
                self._release()
                raise DegradedError(
                    f"{self.NAME} append failed, entering read-only degraded "
                    f"mode: {exc}"
                ) from exc
            elapsed = time.perf_counter() - write_started
            if self._records == 0:
                self._first_seq = seq
            self._last_seq = seq
            self._records += 1
            self._appended += 1
            return seq, elapsed

    def truncate_through(self, seq: int) -> int:
        """Checkpoint compaction: drop records with sequence <= ``seq``.

        Called after a snapshot captures the state through ``seq`` — the
        dropped prefix is redundant with the snapshot. The tail is
        rewritten atomically (temp file + rename) behind a floor marker;
        sequence numbers keep counting from where they were. Returns how
        many records remain.
        """
        with self._lock:
            records, disk_floor, _valid, _total = self._scan(self.path)
            keep = [record for record in records if record["seq"] > seq]
            if len(keep) == len(records):
                return len(keep)
            floor = max(self._floor, disk_floor, int(seq))
            self._release()
            tmp = self.path.with_name(self.path.name + ".compact")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(self._line({"floor": floor}))
                    for record in keep:
                        fh.write(self._line(record))
                    fh.flush()
                    _faults.inject(
                        f"{self.FAULTS}.compact.fsync",
                        lambda: OSError(f"injected compaction fsync failure: {tmp}"),
                    )
                    os.fsync(fh.fileno())
                _faults.inject(
                    f"{self.FAULTS}.compact.replace",
                    lambda: OSError(f"injected compaction replace failure: {tmp}"),
                )
                os.replace(tmp, self.path)
            except OSError as exc:
                # the original log is untouched until os.replace lands, so a
                # failed compaction is loud but harmless: replay still works
                # from the uncompacted file; only the temp file may be torn.
                raise StoreError(
                    f"checkpoint compaction of {self.path} failed; the "
                    f"uncompacted log remains authoritative: {exc}"
                ) from exc
            self._records = len(keep)
            self._first_seq = keep[0]["seq"] if keep else 0
            self._floor = floor
            self._last_seq = max(self._last_seq, floor)
            return len(keep)

    # -- degraded mode -----------------------------------------------------

    @property
    def degraded(self) -> str | None:
        """Why the log is read-only degraded, or ``None`` when healthy."""
        return self._degraded

    def _load(self) -> None:
        """Adopt the file on disk: cut a torn tail, reset the counters.

        The sequence floor never goes backwards.
        """
        records, floor, valid_bytes, total_bytes = self._scan(self.path)
        if valid_bytes < total_bytes:
            # the torn tail was never acknowledged: cutting it is the
            # correct recovery
            with open(self.path, "ab") as fh:
                fh.truncate(valid_bytes)
        self._records = len(records)
        self._first_seq = records[0]["seq"] if records else 0
        self._floor = max(self._floor, floor)
        self._last_seq = max(
            self._last_seq, floor, records[-1]["seq"] if records else 0
        )

    def reopen(self) -> None:
        """Heal a degraded log: re-verify the file and accept appends again.

        Rescans the on-disk log (refusing mid-log corruption exactly as
        construction does), truncates any torn tail the failed append
        left behind, and restores in-memory counters from what is
        actually on disk.  A record whose *write completed* but whose
        fsync failed is adopted: it is a complete terminated line,
        indistinguishable from (and as safe as) an acknowledged one —
        replaying it is the standard resolution of the
        crash-after-write-before-ack window.
        """
        with self._lock:
            self._release()
            self._load()
            self._degraded = None

    # -- lifecycle ---------------------------------------------------------

    def _release(self) -> None:
        """Drop the append handle; the next append opens a new one."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass  # a failed write already degraded the log
            self._fh = None

    def close(self) -> None:
        """Close the append handle (reads still work; appends reopen)."""
        with self._lock:
            self._release()

    def seal(self) -> None:
        """Permanently refuse further appends through this instance.

        Eviction hands the log file to the *next* restore of the tenant;
        sealing (after waiting out any in-flight append — the lock is
        held for the full append) guarantees a stale session reference
        can never interleave duplicate sequence numbers into a file now
        owned by a newer session. Reads still work.
        """
        with self._lock:
            self._sealed = True
            self._release()

    def stats(self) -> dict:
        """Log counters: size on disk, record count, sequence geometry."""
        return {
            "path": str(self.path),
            "last_seq": self._last_seq,
            "first_live_seq": self.first_live_seq,
            "compacted_through": self._floor,
            "records": self._records,
            "appended": self._appended,
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
            "degraded": self._degraded,
        }


__all__ = ["RecordLog"]
