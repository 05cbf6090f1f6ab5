"""Standing monitors over one explainer session.

A :class:`MonitorSet` owns every monitor registered against one
session: for each it keeps the frozen spec, the baseline summary, the
latest summary, a WAL-seq cursor, and its drift detectors. All state
mutation runs on the session's lane (the set registers itself as the
``"monitor"`` request kind), so monitor evaluation serializes with
explanation and update traffic exactly the way every other engine
access does — no second locking discipline.

The refresh path is the point of the subsystem: after a delta batch the
engine's count tensors are already current (``apply_delta`` is
O(|delta|)), so refreshing a monitor is a handful of tensor reads — it
never replays the log or rescans rows. The cursor only *measures* how
many WAL batches the refresh covered; when it predates the log's first
live record (a checkpoint compacted its range away) the monitor counts
a ``truncated_cursor`` and re-anchors, mirroring what a remote tailing
client must do when :meth:`DeltaLog.cursor_valid` fails: resnapshot.

Alerts go three places, in order: the durable journal (crash
recovery), the in-memory ring buffer (the ``watch`` long-poll reads
it), and the condition variable that wakes blocked watchers. Watchers
poll with an *alert-seq* cursor — ``watch(cursor)`` returns every
buffered alert newer than it plus the new cursor, or times out empty —
so a client that reconnects never misses an alert that is still in the
buffer, and can detect a gap when its cursor has fallen off the ring.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Mapping

import repro.faults as _faults
from repro.monitor.detectors import Alert, build_detectors
from repro.monitor.journal import MonitorJournal
from repro.monitor.summaries import compute_summary, encode_spec
from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.service.session import ExplainerSession, plain_json

_MONITOR_REFRESHES = _obs.get_registry().counter(
    "repro_monitor_refreshes_total", "Monitor summary refreshes computed."
)
_MONITOR_REFRESH_ERRORS = _obs.get_registry().counter(
    "repro_monitor_refresh_errors_total", "Monitor refresh dispatches that failed."
)
_MONITOR_REFRESH_FAILURES = _obs.get_registry().counter(
    "repro_monitor_refresh_failures_total",
    "Individual monitors whose refresh raised (isolated, not fatal).",
)
_MONITOR_ALERTS = _obs.get_registry().counter(
    "repro_monitor_alerts_total", "Drift alerts emitted by monitors."
)

#: how many alerts the in-memory ring keeps for ``watch`` long-polls;
#: older alerts remain in the journal but are no longer served live.
ALERT_BUFFER = 1024

WATCH_DEFAULT_TIMEOUT = 25.0
WATCH_MAX_TIMEOUT = 60.0


def _monitor_state(monitor_id: str, spec: dict, baseline: dict, cursor: int) -> dict:
    """A registered monitor's state before its first refresh.

    Registration and journal recovery both start a monitor here.
    """
    return {
        "id": monitor_id,
        "spec": spec,
        "baseline": baseline,
        "summary": dict(baseline),
        "cursor": cursor,
        "registered_at": cursor,
        "batches_seen": 0,
        "refreshes": 0,
        "alerts": 0,
        "truncated_cursors": 0,
        "detectors": build_detectors(spec),
    }


class MonitorSet:
    """Every standing monitor attached to one explainer session."""

    def __init__(
        self, session: ExplainerSession, journal: MonitorJournal | None = None
    ):
        self._session = session
        self._journal = journal
        self._monitors: dict[str, dict] = {}
        self._next_id = 1
        self._cond = threading.Condition()
        self._alerts: deque[tuple[int, Alert]] = deque(maxlen=ALERT_BUFFER)
        self._alert_seq = 0
        self._refreshes = 0
        self._refresh_errors = 0
        self._refresh_failures = 0
        if journal is not None:
            self._recover(journal)
        # All mutation funnels through the session's lane.
        session._batcher.register("monitor", self.handle)

    # -- lane-routed public API --------------------------------------------

    def add(self, payload: Mapping[str, Any]) -> dict:
        """Register a monitor; returns its description (with ``id``)."""
        return self._session._batcher.run("monitor", ("add", dict(payload)))

    def list(self) -> dict:
        """Describe every registered monitor."""
        return self._session._batcher.run("monitor", ("list", None))

    def get(self, monitor_id: str) -> dict:
        """Describe one monitor; raises ``KeyError`` when unknown."""
        return self._session._batcher.run("monitor", ("get", str(monitor_id)))

    def remove(self, monitor_id: str) -> dict:
        """Deregister a monitor (recorded in the journal)."""
        return self._session._batcher.run("monitor", ("remove", str(monitor_id)))

    def refresh(self) -> dict:
        """Synchronously refresh every monitor; returns refresh counters."""
        return self._session._batcher.run("monitor", ("refresh", None))

    def poke(self) -> None:
        """Refresh every monitor now, through the lane on the caller's thread.

        The post-update notification path: the update's caller waits for
        the refresh, so an acknowledged update has already refreshed its
        monitors, inside the update's trace.  Errors are counted, not
        raised — the update they follow has already succeeded.
        """
        if not self._monitors:
            return
        try:
            self.refresh()
        except Exception:  # noqa: BLE001 - counted, never raised
            with self._cond:
                self._refresh_errors += 1
            _MONITOR_REFRESH_ERRORS.inc()

    # -- the lane handler ----------------------------------------------------

    def handle(self, command: tuple[str, Any]) -> Any:
        """Lane handler: answer one ``(op, arg)`` command."""
        op, arg = command
        if op == "add":
            return self._add(arg)
        if op == "list":
            return self._list()
        if op == "get":
            return self._describe(self._monitors[arg])
        if op == "remove":
            return self._remove(arg)
        if op == "refresh":
            return self._refresh()
        raise ValueError(f"unknown monitor command {op!r}")

    # -- command implementations (lane only) ---------------------------------

    def _position(self) -> int:
        """The session's current stream position.

        WAL sequence number for durable sessions; the engine's table
        version for plain in-memory sessions (both advance by exactly
        one per applied delta batch, so cursor arithmetic is identical).
        """
        log = getattr(self._session, "log", None)
        if log is not None:
            return int(log.last_seq)
        return int(self._session.table_version)

    def _add(self, payload: Mapping[str, Any]) -> dict:
        lewis = self._session.lewis
        spec = encode_spec(lewis, payload)
        monitor_id = f"m{self._next_id}"
        baseline = compute_summary(lewis, spec)
        position = self._position()
        state = _monitor_state(monitor_id, spec, baseline, position)
        if self._journal is not None:
            # journal before exposing: a registration the client saw
            # acknowledged must survive a crash.
            data = {
                "id": monitor_id,
                "spec": spec,
                "baseline": baseline,
                "cursor": position,
            }
            request_id = _tracing.current_trace_id()
            if request_id is not None:
                data["request_id"] = request_id
            self._journal.append("register", data)
        self._next_id += 1
        self._monitors[monitor_id] = state
        return self._describe(state)

    def _remove(self, monitor_id: str) -> dict:
        removed = self._monitors.pop(monitor_id, None) is not None
        if removed and self._journal is not None:
            self._journal.append("remove", {"id": monitor_id})
        return {"id": monitor_id, "removed": removed}

    def _list(self) -> dict:
        return {
            "monitors": [self._describe(s) for s in self._monitors.values()],
            "position": self._position(),
            "alerts_total": self._alert_seq,
        }

    def _describe(self, state: Mapping) -> dict:
        spec = state["spec"]
        return plain_json(
            {
                "id": state["id"],
                "kind": spec["kind"],
                "metric": spec["metric"],
                "threshold": spec["threshold"],
                "cusum": spec["cusum"],
                "params": spec["params"],
                "baseline": state["baseline"],
                "summary": state["summary"],
                "cursor": state["cursor"],
                "registered_at": state["registered_at"],
                "batches_seen": state["batches_seen"],
                "refreshes": state["refreshes"],
                "alerts": state["alerts"],
                "truncated_cursors": state["truncated_cursors"],
                "detectors": {
                    d.name: d.export_state() for d in state["detectors"]
                },
            }
        )

    def _refresh(self) -> dict:
        lewis = self._session.lewis
        log = getattr(self._session, "log", None)
        position = self._position()
        out = {
            "position": position,
            "monitors": len(self._monitors),
            "refreshed": 0,
            "failed": 0,
            "alerts": 0,
        }
        for state in self._monitors.values():
            if position <= state["cursor"]:
                continue  # nothing new past this monitor's cursor
            # One monitor's failure must never starve the others: the
            # whole per-monitor step is isolated, and the cursor only
            # commits after a successful compute — a failed monitor
            # retries the same range on the next refresh.
            try:
                _faults.inject("monitor.refresh")
                summary = compute_summary(lewis, state["spec"])
            except Exception as exc:  # noqa: BLE001 - isolate per monitor
                out["failed"] += 1
                self._refresh_failed(state, exc)
                continue
            if log is not None and not log.cursor_valid(state["cursor"]):
                # A checkpoint compacted the cursor's range away. The
                # live tensors still hold the truth, so re-anchor — but
                # count it: a *remote* tailer in this position has lost
                # deltas and must resnapshot.
                state["truncated_cursors"] += 1
            # seqs are contiguous even across compaction, so the gap is
            # exactly the number of delta batches this refresh covers
            state["batches_seen"] += position - state["cursor"]
            state["cursor"] = position
            state["summary"] = summary
            state["refreshes"] += 1
            self._refreshes += 1
            _MONITOR_REFRESHES.inc()
            out["refreshed"] += 1
            metric = state["spec"]["metric"]
            value = float(summary[metric])
            baseline = float(state["baseline"][metric])
            try:
                for detector in state["detectors"]:
                    fired = detector.update(value, baseline)
                    if fired is not None:
                        magnitude, direction = fired
                        # The journal checkpoints every detector's state
                        # at each alert, for recovery to resume from.
                        states = {
                            d.name: d.export_state() for d in state["detectors"]
                        }
                        self._publish(
                            state,
                            {"states": states},
                            detector=detector.name,
                            value=value,
                            baseline=baseline,
                            magnitude=magnitude,
                            direction=direction,
                        )
                        out["alerts"] += 1
            except Exception as exc:  # noqa: BLE001 - isolate per monitor
                out["failed"] += 1
                self._refresh_failed(state, exc)
        return out

    def _refresh_failed(self, state: dict, exc: Exception) -> None:
        """Count a contained per-monitor refresh failure and alert on it.

        Typed like any drift alert so ``watch`` clients and the journal
        see it, with ``detector="refresh_failure"`` / ``direction=
        "error"`` marking it as operational rather than statistical.
        """
        self._refresh_failures += 1
        _MONITOR_REFRESH_FAILURES.inc()
        metric = state["spec"]["metric"]
        self._publish(
            state,
            {"error": f"{type(exc).__name__}: {exc}"},
            detector="refresh_failure",
            value=0.0,
            baseline=float(state["baseline"].get(metric, 0.0)),
            magnitude=0.0,
            direction="error",
        )

    def _publish(self, state: dict, detail: Mapping[str, Any], **fields) -> None:
        """Raise one alert of ``state``'s monitor: count, journal, ring, notify.

        ``fields`` are the :class:`Alert` fields the monitor does not
        fix (``detector``, ``value``, ``baseline``, ``magnitude``,
        ``direction``).  The journal record holds ``alert`` and
        ``detail`` (``states`` or ``error``), plus the ``request_id`` of
        the update that triggered the refresh when it ran inside a
        traced request (the post-update notify path).
        """
        alert = Alert(
            monitor_id=state["id"],
            metric=state["spec"]["metric"],
            wal_seq=state["cursor"],
            table_version=int(self._session.table_version),
            **fields,
        )
        state["alerts"] += 1
        _MONITOR_ALERTS.inc()
        if self._journal is not None:
            data = {"alert": alert.to_json(), **detail}
            request_id = _tracing.current_trace_id()
            if request_id is not None:
                data["request_id"] = request_id
            self._journal.append("alert", data)
        with self._cond:
            self._alert_seq += 1
            self._alerts.append((self._alert_seq, alert))
            self._cond.notify_all()

    # -- watch (any thread) ------------------------------------------------

    def watch(
        self, cursor: int = 0, timeout: float = WATCH_DEFAULT_TIMEOUT
    ) -> dict:
        """Long-poll for alerts with alert-seq greater than ``cursor``.

        Returns immediately when newer alerts are already buffered;
        otherwise blocks up to ``timeout`` seconds for the next one.
        The response's ``cursor`` is what the client passes next time;
        ``cursor_truncated`` warns that alerts between the request
        cursor and the oldest buffered one have fallen off the ring
        (they are still in the journal).
        """
        cursor = int(cursor)
        timeout = max(0.0, min(float(timeout), WATCH_MAX_TIMEOUT))
        deadline = time.monotonic() + timeout

        def _reply(fresh: list[tuple[int, Alert]], timed_out: bool) -> dict:
            oldest = self._alerts[0][0] if self._alerts else self._alert_seq + 1
            return {
                "alerts": [
                    dict(alert.to_json(), seq=seq) for seq, alert in fresh
                ],
                "cursor": fresh[-1][0] if fresh else cursor,
                "timed_out": timed_out,
                "alerts_total": self._alert_seq,
                "cursor_truncated": cursor + 1 < oldest,
            }

        with self._cond:
            while True:
                fresh = [(s, a) for s, a in self._alerts if s > cursor]
                if fresh:
                    return _reply(fresh, timed_out=False)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return _reply([], timed_out=True)
                self._cond.wait(remaining)

    # -- recovery / lifecycle ----------------------------------------------

    def _recover(self, journal: MonitorJournal) -> None:
        """Rebuild registrations, alert history and detector state."""
        max_id = 0
        for record in journal.replay():
            kind, data = record["kind"], record["data"]
            if kind == "register":
                self._monitors[str(data["id"])] = _monitor_state(
                    str(data["id"]),
                    data["spec"],
                    dict(data["baseline"]),
                    int(data["cursor"]),
                )
                try:
                    max_id = max(max_id, int(str(data["id"]).lstrip("m")))
                except ValueError:
                    pass
            elif kind == "remove":
                self._monitors.pop(str(data["id"]), None)
            elif kind == "alert":
                doc = data["alert"]
                self._alert_seq += 1
                self._alerts.append((self._alert_seq, Alert.from_json(doc)))
                state = self._monitors.get(str(doc["monitor_id"]))
                if state is not None:
                    state["alerts"] += 1
                    # the journal checkpoints detector state at each
                    # alert — the last one wins, so accumulators resume
                    # from their last externally visible value
                    for detector in state["detectors"]:
                        checkpoint = (data.get("states") or {}).get(
                            detector.name
                        )
                        if checkpoint is not None:
                            detector.load_state(checkpoint)
        self._next_id = max_id + 1

    def close(self) -> None:
        """Release the journal handle (the monitor state stays replayable)."""
        if self._journal is not None:
            self._journal.close()

    def stats(self) -> dict:
        """Counters for the service's stats endpoint."""
        return {
            "monitors": len(self._monitors),
            "alerts_total": self._alert_seq,
            "buffered_alerts": len(self._alerts),
            "refreshes": self._refreshes,
            "refresh_errors": self._refresh_errors,
            "refresh_failures": self._refresh_failures,
            "journal": self._journal.stats() if self._journal else None,
        }


__all__ = [
    "ALERT_BUFFER",
    "WATCH_DEFAULT_TIMEOUT",
    "WATCH_MAX_TIMEOUT",
    "MonitorSet",
]
