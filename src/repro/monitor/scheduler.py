"""Per-tenant monitor lifecycle: attach, notify, detach.

The HTTP server owns exactly one :class:`MonitorScheduler`. It maps
sessions to their :class:`~repro.monitor.monitors.MonitorSet`, creating
one lazily on first use — with a durable journal under the store for
registry tenants, in-memory for the default session — and re-attaches
after an eviction/restore cycle: the registry hands out a *new* session
object for the same tenant, and the scheduler detects the identity
change, closes the stale set, and rebuilds from the tenant's journal
(registrations, alert history and detector state all replay).

``notify`` is the update hook: after a successful ``/v1/update`` the
server pokes the session's monitor set, which refreshes synchronously
through the session's lane on the update's own thread, inside its
trace — so the update's response is sent only after its monitors (and
any alert journaled under its request id) caught up. Tenants without
monitors cost nothing — ``notify`` only acts on sessions that already
have a set attached.
"""

from __future__ import annotations

import threading
import weakref

from repro.monitor.journal import MonitorJournal
from repro.monitor.monitors import MonitorSet
from repro.obs import metrics as _obs
from repro.service.session import ExplainerSession


class MonitorScheduler:
    """Routes monitor traffic to the right session's :class:`MonitorSet`."""

    def __init__(self, store=None):
        self._store = store
        self._lock = threading.Lock()
        #: tenant name ("" for the default session) -> (session, set)
        self._entries: dict[str, tuple[ExplainerSession, MonitorSet]] = {}
        # Weakly-referenced registry collector: attached-set gauges are
        # sampled at scrape time, and the collector unregisters itself
        # (LookupError) once the scheduler is garbage-collected.
        self._collector_key = f"monitor_scheduler:{id(self)}"
        ref = weakref.ref(self)

        def collect():
            scheduler = ref()
            if scheduler is None:
                raise LookupError("monitor scheduler gone")
            samples: dict[str, float] = {}
            with scheduler._lock:
                entries = dict(scheduler._entries)
            samples[_obs.full_name("repro_monitor_sets")] = float(len(entries))
            monitors = alerts = 0.0
            for _name, (_session, mset) in entries.items():
                stats = mset.stats()
                monitors += stats["monitors"]
                alerts += stats["alerts_total"]
            samples[_obs.full_name("repro_monitor_monitors")] = monitors
            samples[_obs.full_name("repro_monitor_alert_seq")] = alerts
            return samples

        _obs.get_registry().register_collector(self._collector_key, collect)

    def ensure(self, session: ExplainerSession) -> MonitorSet:
        """The session's monitor set, creating or re-attaching as needed."""
        key = session.tenant or ""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is session:
                return entry[1]
            if entry is not None:
                # same tenant, new session object: it was evicted and
                # restored — release the stale journal handle first
                entry[1].close()
            journal = None
            if self._store is not None and session.tenant:
                journal = MonitorJournal(
                    self._store.monitor_journal_path(session.tenant)
                )
            monitors = MonitorSet(session, journal=journal)
            self._entries[key] = (session, monitors)
        if entry is not None and monitors.stats()["monitors"]:
            # recovered monitors carry pre-eviction cursors; one refresh
            # catches them up with everything the WAL replay applied
            monitors.poke()
        return monitors

    def peek(self, session: ExplainerSession) -> MonitorSet | None:
        """The session's monitor set if one is attached, else None."""
        with self._lock:
            entry = self._entries.get(session.tenant or "")
            if entry is not None and entry[0] is session:
                return entry[1]
            return None

    def notify(self, session: ExplainerSession) -> None:
        """Post-update hook: refresh the session's monitors now."""
        monitors = self.peek(session)
        if monitors is not None:
            monitors.poke()

    def drop(self, tenant: str) -> None:
        """Forget a tenant's set (its removal path closes the journal)."""
        with self._lock:
            entry = self._entries.pop(tenant or "", None)
        if entry is not None:
            entry[1].close()

    def close(self) -> None:
        """Release every journal handle."""
        _obs.get_registry().unregister_collector(self._collector_key)
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for _session, monitors in entries:
            monitors.close()

    def stats(self) -> dict:
        """Per-tenant monitor counters."""
        with self._lock:
            entries = dict(self._entries)
        return {
            "tenants": {
                name or "<default>": monitors.stats()
                for name, (_session, monitors) in entries.items()
            },
        }


__all__ = ["MonitorScheduler"]
