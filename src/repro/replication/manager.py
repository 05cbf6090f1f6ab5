"""Replication control plane: roles, bootstrap, fencing, promotion.

One :class:`ReplicationManager` rides along with every server process:

* as **leader** it is passive — it only lends its store's durable epoch
  to outgoing batches (:meth:`shipping_epoch`), so a re-elected former
  follower ships with the epoch that fences its predecessor.
* as **follower** it bootstraps every tenant from the leader's snapshots
  (manifest + content-addressed blobs over HTTP), runs one
  :class:`~repro.replication.tailer.ReplicaTailer` per tenant, applies
  shipped records through the WAL maintenance path, tracks replica lag
  (served as the ``repro_replication_lag_records{tenant}`` gauge by a
  registry collector), and — when ``auto_promote`` is set — probes the
  leader's ``/healthz`` every second and promotes itself after 3
  consecutive misses (:data:`HEALTH_INTERVAL`, :data:`HEALTH_FAILURES`).

Fencing happens at ingest: every batch's epoch goes through
:meth:`EpochStore.note_seen`, which durably ratchets the fencing floor
and refuses anything below it (:class:`FencedError`).  A deposed leader
that comes back and keeps shipping its stale tail is therefore ignored
by every follower that has seen the new leader's epoch.

Promotion (:meth:`promote`) stops tailing, optionally replays the dead
leader's on-disk WAL tails (``catchup_store``) through the replicated
apply path — the zero-acked-write-loss step when the old leader's disk
survived — then durably advances the epoch and flips the role.  All
crash points sit *before* the epoch advance, so a failed promotion
leaves a follower, never a half-leader.
"""

from __future__ import annotations

import threading
import weakref
from pathlib import Path

from repro.obs import metrics as _obs
from repro.replication.epoch import EpochStore
from repro.replication.tailer import LogShipClient, ReplicaApplier, ReplicaTailer
from repro.store.wal import DeltaLog
from repro.utils.exceptions import StoreError

_REPL_APPLIED = _obs.get_registry().counter(
    "repro_replication_applied_total",
    "WAL records applied from shipped batches on this replica.",
)
_REPL_RESYNCS = _obs.get_registry().counter(
    "repro_replication_resyncs_total",
    "Snapshot resyncs forced by compaction gaps in the shipped log.",
)
_REPL_FENCED = _obs.get_registry().counter(
    "repro_replication_fenced_batches_total",
    "Shipped batches refused because their leader epoch was stale.",
)
_REPL_PROMOTIONS = _obs.get_registry().counter(
    "repro_replication_promotions_total",
    "Follower promotions completed by this process.",
)
_LAG = "repro_replication_lag_records"
_obs.get_registry().declare(
    _LAG, "gauge", "Records this replica trails the leader by."
)

#: seconds between leader health probes of an auto-promoting follower.
HEALTH_INTERVAL = 1.0
#: consecutive failed probes after which that follower promotes itself.
HEALTH_FAILURES = 3


class FencedError(StoreError):
    """A shipped batch carried an epoch below this node's fencing floor."""


class ReplicationManager:
    """Role, tailers and failover for one server process.

    Parameters
    ----------
    registry:
        The process's :class:`~repro.store.registry.Registry`; replicas
        apply shipped records into its sessions, leaders only lend it
        their epoch.
    role:
        ``"leader"`` (default) or ``"follower"``.
    leader_url:
        Base URL of the current leader (required for followers).
    auto_promote:
        Follower promotes itself after :data:`HEALTH_FAILURES`
        consecutive failed leader health probes.
    client:
        The leader's shipping client; defaults to a
        :class:`LogShipClient` on ``leader_url``.
    """

    def __init__(
        self,
        registry,
        role: str = "leader",
        leader_url: str | None = None,
        auto_promote: bool = False,
        client: LogShipClient | None = None,
    ):
        if role not in ("leader", "follower"):
            raise ValueError(f"role must be 'leader' or 'follower', got {role!r}")
        if role == "follower" and not (leader_url or client):
            raise ValueError("a follower needs the leader's URL")
        self.registry = registry
        self.role = role
        self.leader_url = leader_url
        self.auto_promote = bool(auto_promote)
        self.epochs = EpochStore(registry.store.root)
        self.client = client or (LogShipClient(leader_url) if leader_url else None)
        self._lock = threading.RLock()
        self._tailers: dict[str, ReplicaTailer] = {}
        self._lag: dict[str, int] = {}
        self._probe: threading.Thread | None = None
        self._probe_stop = threading.Event()
        self.probe_failures = 0
        self.last_promotion_error: str | None = None
        # Weakly-referenced registry collector: the lag gauge is sampled
        # from ``_lag`` at scrape time, and the collector unregisters
        # itself (LookupError) once the manager is garbage-collected.
        self._collector_key = f"replication_manager:{id(self)}"
        ref = weakref.ref(self)

        def collect():
            manager = ref()
            if manager is None:
                raise LookupError("replication manager gone")
            return {
                _obs.full_name(_LAG, {"tenant": tenant}): float(lag)
                for tenant, lag in manager.lag().items()
            }

        _obs.get_registry().register_collector(self._collector_key, collect)

    # -- views -------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    def shipping_epoch(self) -> int:
        """Epoch stamped into outgoing batches (the durable fencing floor)."""
        return self.epochs.max_seen()

    def lag(self, tenant: str | None = None):
        """Records behind the leader, per tenant or for one tenant."""
        with self._lock:
            if tenant is not None:
                return self._lag.get(str(tenant), 0)
            return dict(self._lag)

    def status(self) -> dict:
        """One self-describing document for ``/v1/replication`` and the CLI."""
        with self._lock:
            tailers = {name: t.status() for name, t in self._tailers.items()}
            lag = dict(self._lag)
        return {
            "role": self.role,
            "leader_url": self.leader_url,
            "auto_promote": self.auto_promote,
            "epoch": {
                "current": self.epochs.current(),
                "max_seen": self.epochs.max_seen(),
                "history": self.epochs.history()[-8:],
            },
            "lag_records": lag,
            "tailers": tailers,
            "probe_failures": self.probe_failures,
            "last_promotion_error": self.last_promotion_error,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bring the role up: followers bootstrap, tail, and maybe probe."""
        if self.role != "follower":
            return
        for tenant in self.client.tenants():
            try:
                self.bootstrap(tenant)
            except StoreError:
                pass  # the tenant's tailer keeps retrying with backoff
            self.ensure_tailer(tenant)
        if self.auto_promote:
            self._start_probe()

    def ensure_tailer(self, tenant: str) -> ReplicaTailer:
        """The running tailer for ``tenant``, starting one if needed."""
        tenant = str(tenant)
        with self._lock:
            tailer = self._tailers.get(tenant)
            if tailer is None or not tailer.is_alive():
                tailer = ReplicaTailer(self, tenant)
                self._tailers[tenant] = tailer
                tailer.start()
            return tailer

    def stop(self) -> None:
        """Stop the probe and every tailer (state stays on disk)."""
        self._probe_stop.set()
        probe, self._probe = self._probe, None
        if probe is not None and probe.is_alive():
            probe.join(timeout=5.0)
        with self._lock:
            tailers = list(self._tailers.values())
            self._tailers.clear()
        for tailer in tailers:
            tailer.stop()

    close = stop

    # -- snapshot transfer (bootstrap and resync) ---------------------------

    def _fetch_snapshot(self, tenant: str) -> dict:
        """Pull the leader's latest manifest + blobs into the local store.

        Every blob the manifest names is transferred, whatever its role,
        so no local manifest ever names a missing object.  Content
        addressing makes the transfer self-verifying: a blob whose bytes
        do not hash to the digest the manifest names would land at a
        *different* address, so the check below catches any in-flight
        corruption before a manifest ever points at it.
        """
        manifest = self.client.manifest(tenant)
        store = self.registry.store
        for role, digest in manifest["blobs"].items():
            if store.has(digest):
                continue
            stored = store.put_bytes(self.client.object(tenant, digest))
            if stored != digest:
                raise StoreError(
                    f"shipped {role} blob for tenant {tenant!r} hashes to "
                    f"{stored} but the manifest names {digest}: refusing "
                    "corrupt snapshot transfer"
                )
        local = dict(manifest)
        local.pop("snapshot_id", None)
        store.write_manifest(tenant, local)
        return manifest

    def bootstrap(self, tenant: str):
        """Make ``tenant`` serveable locally from the leader's snapshot.

        Skips the transfer when the local store already has a manifest at
        least as new (by WAL seq) — shipped records cover the rest.
        """
        tenant = str(tenant)
        store = self.registry.store
        if tenant in store.tenants():
            local_seq = int(store.manifest(tenant)["wal_seq"])
            local_log = DeltaLog(store.wal_path(tenant))
            if max(local_seq, local_log.last_seq) >= int(
                self.client.manifest(tenant)["wal_seq"]
            ):
                return self.registry.get(tenant)
        self._fetch_snapshot(tenant)
        return self.registry.get(tenant)

    def resync(self, tenant: str):
        """Recover from a compaction gap: drop local state, re-snapshot.

        The shipped cursor pointed into history the leader already
        compacted away; replaying is impossible, so the replica falls
        back to the latest snapshot (whose manifest anchors the WAL
        floor) and resumes tailing from there.
        """
        tenant = str(tenant)
        _REPL_RESYNCS.inc()
        # fetch before evicting: a read racing the resync would otherwise
        # restore the stale manifest, and the floor raised below would
        # then cover deltas that session never applied
        manifest = self._fetch_snapshot(tenant)
        self.registry.evict(tenant)
        session = self.registry.get(tenant)
        # drop the stale local tail below the new floor so the next
        # cursor starts at the snapshot, not inside compacted history
        session.log.truncate_through(int(manifest["wal_seq"]))
        return session

    # -- the per-round sync the tailer drives --------------------------------

    def sync_once(self, tenant: str) -> bool:
        """One poll-and-apply round; True when caught up with the leader."""
        tenant = str(tenant)
        if tenant not in self.registry.store.tenants():
            self.bootstrap(tenant)
        session = self.registry.get(tenant)
        batch = self.client.fetch(tenant, session.log.last_seq)
        if batch.get("cursor_valid", True):
            result = self.ingest_batch(tenant, batch, session=session)
        else:
            self._fence(tenant, batch)
            session = self.resync(tenant)
            batch = {"last_seq": batch.get("last_seq", session.log.last_seq)}
            result = {"applied": 0, "gap": False}
        lag = max(0, int(batch.get("last_seq", 0)) - session.log.last_seq)
        with self._lock:
            self._lag[tenant] = lag
        return lag == 0 and not result["gap"]

    def ingest_batch(self, tenant: str, batch: dict, session=None) -> dict:
        """Fence-check and apply one shipped batch (the testable core)."""
        if session is None:
            session = self.registry.get(tenant)
        self._fence(tenant, batch)
        result = ReplicaApplier(session).apply_batch(batch)
        if result["applied"]:
            _REPL_APPLIED.inc(result["applied"])
        return result

    def _fence(self, tenant: str, batch: dict) -> None:
        """Ratchet the fencing floor to ``batch``'s epoch, or refuse it.

        The one fence check: :meth:`sync_once` runs it (through
        :meth:`ingest_batch`, or itself before a resync), so every
        shipped batch is fenced exactly once.
        """
        epoch = int(batch.get("epoch", 0))
        if not self.epochs.note_seen(epoch):
            _REPL_FENCED.inc()
            raise FencedError(
                f"batch for tenant {tenant!r} ships epoch {epoch} below "
                f"fencing floor {self.epochs.max_seen()}: refusing records "
                "from a deposed leader"
            )

    # -- failover ------------------------------------------------------------

    def retarget(self, leader_url: str) -> None:
        """Point the tailers at a new leader (after someone else promoted)."""
        with self._lock:
            self.leader_url = str(leader_url)
            self.client = LogShipClient(self.leader_url)
            self.probe_failures = 0

    def promote(self, catchup_store: str | None = None, reason: str = "") -> dict:
        """Become leader: stop tailing, catch up, fence, flip the role.

        ``catchup_store`` is the dead leader's store root; when its disk
        survived, every durably logged record past this replica's cursor
        is replayed through the replicated-apply path *before* the epoch
        advances — that is the zero-acked-write-loss guarantee for
        fail-stop leaders.  The epoch advance itself is the commit point
        (and the ``repl.promote`` crash site): a promotion that fails
        leaves this node a follower with its old epoch.
        """
        # Never hold _lock while joining tailers: a tailer mid-round
        # takes _lock to record lag, and joining it here would deadlock.
        with self._lock:
            if self.role == "leader":
                return {"role": "leader", "epoch": self.epochs.current(),
                        "already_leader": True, "caught_up": {}}
            self._probe_stop.set()
            tailers = list(self._tailers.values())
            self._tailers.clear()
        for tailer in tailers:
            tailer.stop()
        caught_up: dict[str, int] = {}
        if catchup_store:
            caught_up = self._catch_up_from(Path(catchup_store))
        epoch = self.epochs.advance(
            reason or "explicit promotion"
        )  # raises on injected repl.promote: still a follower
        with self._lock:
            self.role = "leader"
            self.auto_promote = False
        _REPL_PROMOTIONS.inc()
        return {"role": "leader", "epoch": epoch, "caught_up": caught_up}

    def _catch_up_from(self, dead_root: Path) -> dict[str, int]:
        """Replay the dead leader's WAL tails into this replica.

        Only reads ``<dead_root>/wal/<tenant>.jsonl`` — never writes into
        the dead store.  Records at or below our cursor are duplicates
        (already shipped); a sequence hole means the dead log itself was
        compacted past us mid-failover, which the next checkpoint of our
        own log makes irrelevant.
        """
        caught_up: dict[str, int] = {}
        for tenant in self.registry.store.tenants():
            dead_wal = dead_root / "wal" / f"{tenant}.jsonl"
            if not dead_wal.exists():
                continue
            session = self.registry.get(tenant)
            # read-only: opening a DeltaLog would cut the dead log's torn tail
            records = DeltaLog.read(dead_wal, after=session.log.last_seq)
            result = ReplicaApplier(session).apply_batch({"records": records})
            caught_up[tenant] = result["applied"]
        return caught_up

    # -- leader health probe -------------------------------------------------

    def _start_probe(self) -> None:
        self._probe_stop.clear()
        self._probe = threading.Thread(
            target=self._probe_loop, name="repl-probe", daemon=True
        )
        self._probe.start()

    def _probe_loop(self) -> None:  # pragma: no cover - integration-tested
        while not self._probe_stop.wait(HEALTH_INTERVAL):
            if self.role != "follower":
                return
            if self.client.healthy():
                self.probe_failures = 0
                continue
            self.probe_failures += 1
            if self.probe_failures < HEALTH_FAILURES:
                continue
            try:
                self.promote(
                    reason=(
                        f"auto: leader failed {self.probe_failures} "
                        "consecutive health checks"
                    )
                )
            except StoreError as exc:
                self.last_promotion_error = str(exc)
                self.probe_failures = 0  # re-arm instead of promote-looping
                continue
            return
