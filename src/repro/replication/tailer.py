"""Follower-side log tailing: HTTP ship client, applier, tail thread.

Three small pieces, one per concern:

* :class:`LogShipClient` — a stdlib ``urllib`` client for the leader's
  shipping surface (``/v1/<tenant>/log``, the registry manifest/object
  routes used for bootstrap and resync, and ``/healthz`` for the
  promotion probe).
* :class:`ReplicaApplier` — turns one shipped batch into local state by
  feeding records through
  :meth:`~repro.store.wal.DurableSession.apply_replicated` in sequence
  order.  Duplicates are absorbed, out-of-order batches are sorted, and
  a genuine hole (the ``repl.ship.drop`` fault, or real packet loss)
  stops the batch early so the next poll re-fetches from the follower's
  own durable cursor — nothing damaged is ever applied.
* :class:`ReplicaTailer` — one daemon thread per tenant running the
  poll → apply loop with the shared jittered
  :class:`~repro.utils.backoff.Backoff` policy on errors, and going
  quiet (:data:`POLL_INTERVAL` waits) once caught up.

The follower's *cursor is its own log's last sequence number*: because
records are applied through the same write-ahead append path as leader
writes, replication progress is exactly as durable as the data itself
and needs no separate cursor file.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from typing import Any

from repro.store.wal import DurableSession
from repro.utils.backoff import Backoff
from repro.utils.exceptions import StoreError

#: seconds a caught-up tailer sleeps between polls.
POLL_INTERVAL = 0.05
#: seconds one HTTP request to the leader may take.
TIMEOUT = 10.0


class LogShipClient:
    """Minimal JSON-over-HTTP client for a peer's replication surface."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def _get(self, path: str) -> bytes:
        url = f"{self.base_url}{path}"
        try:
            with urllib.request.urlopen(url, timeout=TIMEOUT) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = exc.read().decode("utf-8", "replace")[:200]
            except OSError:
                pass
            raise StoreError(
                f"leader answered {exc.code} for {url}: {detail}"
            ) from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise StoreError(f"cannot reach leader at {url}: {exc}") from exc

    def _get_json(self, path: str) -> Any:
        payload = self._get(path)
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise StoreError(
                f"leader sent unparseable JSON for {path}: {exc}"
            ) from exc

    def fetch(self, tenant: str, cursor: int) -> dict:
        """One shipped batch of WAL records after ``cursor``."""
        tenant = urllib.parse.quote(str(tenant), safe="")
        return self._get_json(f"/v1/{tenant}/log?cursor={int(cursor)}")

    def tenants(self) -> list[str]:
        """Tenant names the leader's store knows about."""
        doc = self._get_json("/v1/registry")
        if isinstance(doc, list):
            return [str(name) for name in doc]
        return [str(name) for name in doc.get("tenants", [])]

    def manifest(self, tenant: str) -> dict:
        """The leader's latest snapshot manifest for ``tenant``."""
        tenant = urllib.parse.quote(str(tenant), safe="")
        return self._get_json(f"/v1/registry/{tenant}/manifest")

    def object(self, tenant: str, digest: str) -> bytes:
        """One content-addressed blob (verified locally on store)."""
        tenant = urllib.parse.quote(str(tenant), safe="")
        digest = urllib.parse.quote(str(digest), safe="")
        return self._get(f"/v1/registry/{tenant}/object/{digest}")

    def healthy(self) -> bool:
        """True when the peer's ``/healthz`` answers 200."""
        try:
            self._get("/healthz")
            return True
        except StoreError:
            return False


class ReplicaApplier:
    """Apply one shipped batch to a local session, in order, exactly once."""

    def __init__(self, session: DurableSession):
        self.session = session

    def apply_batch(self, batch: dict) -> dict:
        """Feed a batch through ``apply_replicated``; stops at any hole.

        Returns ``{"applied", "duplicates", "gap", "last_seq"}``.  A gap
        is not an error: shipped records were lost in flight, and the
        caller's next poll re-fetches from the durable cursor.
        """
        records = sorted(batch.get("records", []), key=lambda r: int(r["seq"]))
        applied = duplicates = 0
        gap = False
        log = self.session.log
        for record in records:
            seq = int(record["seq"])
            last = log.last_seq
            if seq <= last:
                duplicates += 1
                continue
            if seq != last + 1:
                gap = True
                break
            self.session.apply_replicated(
                seq,
                {"insert": record.get("insert", []),
                 "delete": record.get("delete", [])},
                request_id=record.get("request_id"),
            )
            applied += 1
        return {
            "applied": applied,
            "duplicates": duplicates,
            "gap": gap,
            "last_seq": log.last_seq,
        }


class ReplicaTailer(threading.Thread):
    """One daemon thread tailing one tenant's log from the leader.

    Delegates each round to ``manager.sync_once(tenant)`` (which owns
    fencing, lag accounting, and snapshot resync) and only decides
    *pacing*: immediately re-poll while behind, sleep
    :data:`POLL_INTERVAL` when caught up, and back off (jittered
    exponential, interruptible) on transport or apply errors.
    """

    def __init__(self, manager, tenant: str):
        super().__init__(name=f"repl-tail-{tenant}", daemon=True)
        self.manager = manager
        self.tenant = str(tenant)
        self.last_error: str | None = None
        self.rounds = 0
        self.errors = 0
        self._halt = threading.Event()
        self._backoff = Backoff(initial=0.2, max_delay=5.0, jitter=0.25)

    def stop(self, timeout: float | None = 5.0) -> None:
        """Ask the loop to exit and join it."""
        self._halt.set()
        if self.is_alive():  # pragma: no branch - trivial
            self.join(timeout=timeout)

    def stopped(self) -> bool:
        return self._halt.is_set()

    def run(self) -> None:  # pragma: no cover - exercised via integration
        while not self._halt.is_set():
            try:
                caught_up = self.manager.sync_once(self.tenant)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._halt.wait(self._backoff.next_delay())
                continue
            self.rounds += 1
            self.last_error = None
            self._backoff.reset()
            if caught_up:
                self._halt.wait(POLL_INTERVAL)

    def status(self) -> dict:
        """Loop counters for ``/v1/replication`` and the CLI."""
        return {
            "tenant": self.tenant,
            "alive": self.is_alive(),
            "rounds": self.rounds,
            "errors": self.errors,
            "last_error": self.last_error,
        }
