"""Multi-tenant session registry: lazy loading, locks, byte-budgeted eviction.

One process serves many named tenants, each a stored (model, table,
tensors) session far bigger than a request.  The registry keeps the hot
ones live and lets the cold ones stay on disk:

* ``get(name)`` lazy-loads a tenant behind a per-tenant lock — two
  concurrent first requests trigger one restore, and loading tenant A
  never blocks requests to already-loaded tenant B,
* loaded sessions live in a byte-budgeted LRU
  (:class:`~repro.utils.lru.ByteBudgetLRU` — the same policy engine as
  every cache in the stack) sized by their real footprint (encoded table
  + cached tensors); the least-recently-served tenant is evicted when
  the budget is exceeded, which is safe at any moment because every
  acknowledged update is already fsync'd in the tenant's write-ahead log,
* all sessions share one tenant-scoped :class:`~repro.service.cache
  .ResultCache`, so operators reason about one response-cache budget for
  the whole process and tenants can never cross-serve entries.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.core.lewis import Lewis
from repro.obs import metrics as _obs
from repro.service.cache import ResultCache
from repro.store.artifacts import ArtifactStore, check_tenant_name
from repro.store.snapshot import (
    checkpoint_session,
    create_tenant,
    restore_session,
)
from repro.store.wal import DurableSession
from repro.utils.exceptions import StoreError
from repro.utils.lru import ByteBudgetLRU

_REGISTRY_LOADS = _obs.get_registry().counter(
    "repro_registry_loads_total",
    "Tenant sessions restored from disk by the registry.",
)
_REGISTRY_EVICTIONS = _obs.get_registry().counter(
    "repro_registry_evictions_total",
    "Tenant sessions evicted by the registry's byte budget.",
)


def session_footprint(session: DurableSession) -> int:
    """Resident bytes a loaded session pins: table codes + count tensors."""
    data = session.lewis.data
    codes = sum(data.codes(name).nbytes for name in data.names)
    tensors = session.lewis.estimator.engine.cache_stats().bytes
    return int(codes + tensors) + 4096  # + python object overhead, roughly


class Registry:
    """Names -> stored sessions, loaded lazily under a byte budget.

    Parameters
    ----------
    store:
        An :class:`ArtifactStore` or a path to open one at.
    max_bytes:
        Byte budget for resident sessions (table + tensors); least-
        recently-used tenants are evicted (closed, state stays on disk)
        beyond it. ``None`` disables the bound.
    max_sessions:
        Optional additional bound on the number of loaded sessions.
    cache:
        Shared result cache; defaults to a private 32 MB one. Keys are
        tenant-scoped, so sharing across tenants is safe by construction.

    The registry and its sessions start no thread; embedded callers and
    HTTP handler threads use the same instance the same way.
    """

    def __init__(
        self,
        store: ArtifactStore | str | Path,
        max_bytes: int | None = 256 << 20,
        max_sessions: int | None = None,
        cache: ResultCache | None = None,
    ):
        self._store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.cache = cache if cache is not None else ResultCache()
        self._lock = threading.Lock()
        self._tenant_locks: dict[str, threading.Lock] = {}
        self._sessions: ByteBudgetLRU = ByteBudgetLRU(
            max_bytes=max_bytes,
            max_entries=max_sessions,
            sizeof=session_footprint,
            on_evict=self._on_evict,
        )
        self._loads = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def store(self) -> ArtifactStore:
        """The backing artifact store."""
        return self._store

    def _on_evict(self, name, session) -> None:
        # Runs inside put() under self._lock. Retire (and so seal) the
        # victim NOW: a get() for this tenant can only observe the miss
        # under self._lock *after* this returns, so its restore scans a
        # WAL no stale reference can still append to — the duplicate-
        # sequence race is closed by construction. Retiring is cheap:
        # bounded by one in-flight fsync.
        session.retire()
        _REGISTRY_EVICTIONS.inc()

    def _insert(self, name: str, session: DurableSession) -> None:
        """Admit a session, capping its accounted size at the budget.

        A tenant whose real footprint exceeds the whole budget would
        otherwise be evicted by its own ``put`` — a close/restore loop
        on every request. Capping lets it stay resident alone (the LRU
        still evicts everything else). Sessions the insertion pushes out
        are retired by :meth:`_on_evict` before the lock is released:
        retiring seals the victim's log (a stale reference can keep
        reading, but a late update fails loudly instead of racing the
        tenant's next restored session for the log file).
        """
        size = session_footprint(session)
        with self._lock:
            if self._sessions.max_bytes is not None:
                size = min(size, self._sessions.max_bytes)
            self._sessions.put(name, session, size=size)

    def _tenant_lock(self, name: str) -> threading.Lock:
        with self._lock:
            return self._tenant_locks.setdefault(name, threading.Lock())

    # -- views -------------------------------------------------------------

    def names(self) -> list[str]:
        """Every tenant with a snapshot in the store."""
        return self._store.tenants()

    def loaded(self) -> list[str]:
        """Tenants currently resident in memory."""
        with self._lock:
            return list(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._store.tenants()

    # -- the main path -----------------------------------------------------

    def get(self, name: str) -> DurableSession:
        """The live session for ``name``, restoring it on first access.

        Restores (snapshot + write-ahead-log replay) run under the
        tenant's own lock: concurrent first requests coalesce into one
        load, and loads never serialize across tenants.
        """
        name = check_tenant_name(name)
        with self._tenant_lock(name):
            with self._lock:
                session = self._sessions.get(name)
            if session is not None:
                return session
            session = restore_session(self._store, name, cache=self.cache)
            self._insert(name, session)
            self._loads += 1
            _REGISTRY_LOADS.inc()
            return session

    def add(self, name: str, lewis: Lewis, default_actionable=None) -> DurableSession:
        """Register a fresh explainer as tenant ``name`` (snapshot included)."""
        name = check_tenant_name(name)
        with self._tenant_lock(name):
            if name in self._store.tenants():
                raise StoreError(f"tenant {name!r} already exists")
            session = create_tenant(
                self._store,
                name,
                lewis,
                cache=self.cache,
                default_actionable=default_actionable,
            )
            self._insert(name, session)
            return session

    def snapshot(self, name: str) -> dict:
        """Checkpoint ``name`` now: snapshot + write-ahead-log compaction.

        A loaded tenant checkpoints its live state. An unloaded tenant
        with a non-empty log tail is restored first (the tail *is* state
        that deserves a snapshot); with an empty tail the latest manifest
        already describes everything and is returned as-is.
        """
        name = check_tenant_name(name)
        with self._tenant_lock(name):
            with self._lock:
                session = self._sessions.peek(name)
            if session is None:
                manifest = self._store.manifest(name)
                log_tail = self._store.wal_path(name)
                from repro.store.wal import DeltaLog

                # one cheap scan: a compacted log only holds records past
                # the last checkpoint, so last_seq alone decides dirtiness
                if (
                    not log_tail.exists()
                    or DeltaLog(log_tail).last_seq <= int(manifest["wal_seq"])
                ):
                    return manifest
                session = restore_session(self._store, name, cache=self.cache)
                self._insert(name, session)
                self._loads += 1
                _REGISTRY_LOADS.inc()
            return checkpoint_session(self._store, session, name)

    def evict(self, name: str) -> bool:
        """Unload ``name`` (retire its session); on-disk state is untouched."""
        name = check_tenant_name(name)
        with self._tenant_lock(name):
            with self._lock:
                session = self._sessions.peek(name)
                self._sessions.discard(name)
            if session is None:
                return False
            session.retire()
            return True

    def remove(self, name: str) -> bool:
        """Drop ``name`` entirely: session, snapshots, and log."""
        name = check_tenant_name(name)
        with self._tenant_lock(name):
            with self._lock:
                session = self._sessions.peek(name)
                self._sessions.discard(name)
            if session is not None:
                session.retire()
            return self._store.remove_tenant(name)

    # -- lifecycle ---------------------------------------------------------

    def close(self, checkpoint: bool = False) -> None:
        """Unload every session, optionally checkpointing each first.

        ``checkpoint=True`` is the graceful-shutdown path: each loaded
        tenant gets a fresh snapshot and a compacted log, so the next
        boot is warm with no tail to replay.
        """
        with self._lock:
            names = list(self._sessions)
        for name in names:
            if checkpoint and self._dirty(name):
                try:
                    self.snapshot(name)
                except StoreError:
                    pass  # unsnapshotable (shouldn't happen); WAL still durable
            self.evict(name)

    def _dirty(self, name: str) -> bool:
        """True when a loaded session has updates the latest snapshot misses."""
        with self._lock:
            session = self._sessions.peek(name)
        if session is None:
            return False
        try:
            manifest = self._store.manifest(name)
        except StoreError:
            return True
        return session.log.last_seq > int(manifest["wal_seq"])

    def __enter__(self) -> "Registry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Registry-level counters plus per-layer cache statistics."""
        with self._lock:
            sessions = self._sessions.stats_struct("sessions").as_dict()
            loaded = list(self._sessions)
        return {
            "tenants": self.names(),
            "loaded": loaded,
            "loads": self._loads,
            "sessions": sessions,
            "cache": self.cache.stats_struct().as_dict(),
            "store": self._store.stats(),
        }
