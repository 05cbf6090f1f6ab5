"""Replication building blocks: batches, ship faults, appliers, epochs."""

from __future__ import annotations

import gc
import http.server
import json
import threading
import time

import numpy as np
import pytest

import repro.faults as faults
import repro.replication.tailer as tailer_module
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.obs import metrics as obs
from repro.replication import (
    EpochStore,
    FencedError,
    LogShipClient,
    ReplicaApplier,
    ReplicaTailer,
    ReplicationManager,
    build_batch,
)
from repro.store import DeltaLog, DurableSession, Registry
from repro.utils.exceptions import StoreError


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


def make_storable_lewis(seed=3, n=60):
    """A Lewis over a fitted (serialisable) model, for registry tests."""
    from repro import fit_table_model

    rng = np.random.default_rng(seed)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 3, n).tolist(),
    }
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, ["a", "b"], "y", seed=seed)
    return Lewis(
        model,
        data=table.select(["a", "b"]),
        attributes=["a", "b"],
        positive_outcome=1,
        infer_orderings=False,
    )


def make_session(tmp_path, name="wal.jsonl"):
    rng = np.random.default_rng(5)
    n = 60
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
    return DurableSession(lewis, DeltaLog(tmp_path / name), tenant="t")


@pytest.fixture()
def leader(tmp_path):
    session = make_session(tmp_path, "leader.jsonl")
    yield session
    session.close()


@pytest.fixture()
def follower(tmp_path):
    session = make_session(tmp_path, "follower.jsonl")
    yield session
    session.close()


def put_rows(session, k):
    for i in range(k):
        session.update({"insert": [{"a": i % 3, "b": 1}]})


class TestBuildBatch:
    def test_geometry_and_records(self, leader):
        put_rows(leader, 3)
        batch = build_batch(leader, cursor=1, epoch=4)
        assert batch["tenant"] == "t"
        assert batch["epoch"] == 4
        assert batch["cursor"] == 1
        assert batch["cursor_valid"] is True
        assert batch["last_seq"] == 3
        assert [r["seq"] for r in batch["records"]] == [2, 3]
        assert batch["table_version"] == leader.table_version
        assert batch["state_token"] == leader.state_token

    def test_limit_caps_the_batch(self, leader):
        put_rows(leader, 5)
        batch = build_batch(leader, cursor=0, limit=2)
        assert [r["seq"] for r in batch["records"]] == [1, 2]
        assert batch["last_seq"] == 5  # follower sees it is still behind

    def test_compacted_cursor_is_flagged_invalid(self, leader):
        put_rows(leader, 3)
        leader.log.truncate_through(2)
        batch = build_batch(leader, cursor=0)
        assert batch["cursor_valid"] is False
        assert batch["records"] == []
        assert batch["first_live_seq"] == 3

    def test_negative_cursor_rejected(self, leader):
        with pytest.raises(ValueError, match="cursor"):
            build_batch(leader, cursor=-1)


class TestShipFaults:
    def test_drop_loses_the_head(self, leader):
        put_rows(leader, 3)
        with faults.plan({"repl.ship.drop": {"once": True}}):
            batch = build_batch(leader, cursor=0)
        assert [r["seq"] for r in batch["records"]] == [2, 3]
        # the log itself is untouched: the next fetch ships everything
        assert [r["seq"] for r in build_batch(leader, cursor=0)["records"]] == [
            1, 2, 3
        ]

    def test_dup_redelivers_the_head(self, leader):
        put_rows(leader, 3)
        with faults.plan({"repl.ship.dup": {"once": True}}):
            batch = build_batch(leader, cursor=0)
        assert [r["seq"] for r in batch["records"]] == [1, 2, 3, 1]

    def test_reorder_reverses_the_batch(self, leader):
        put_rows(leader, 3)
        with faults.plan({"repl.ship.reorder": {"once": True}}):
            batch = build_batch(leader, cursor=0)
        assert [r["seq"] for r in batch["records"]] == [3, 2, 1]


class TestReplicaApplier:
    def test_clean_batch_applies_in_order(self, leader, follower):
        put_rows(leader, 3)
        result = ReplicaApplier(follower).apply_batch(build_batch(leader, 0))
        assert result == {
            "applied": 3, "duplicates": 0, "gap": False, "last_seq": 3,
        }
        assert follower.table_version == leader.table_version
        assert follower.state_token == leader.state_token

    def test_duplicates_absorbed_and_reorder_sorted(self, leader, follower):
        put_rows(leader, 3)
        batch = build_batch(leader, 0)
        batch["records"] = list(reversed(batch["records"])) + batch["records"][:1]
        result = ReplicaApplier(follower).apply_batch(batch)
        assert result["applied"] == 3
        assert result["duplicates"] == 1
        assert not result["gap"]
        assert follower.state_token == leader.state_token

    def test_gap_stops_the_batch_without_applying(self, leader, follower):
        put_rows(leader, 3)
        batch = build_batch(leader, 0)
        batch["records"] = batch["records"][1:]  # head lost in flight
        result = ReplicaApplier(follower).apply_batch(batch)
        assert result["applied"] == 0
        assert result["gap"] is True
        assert follower.log.last_seq == 0  # nothing damaged was applied


class TestApplyReplicated:
    def test_duplicate_is_acknowledged_without_reapplying(self, follower):
        follower.apply_replicated(1, {"insert": [{"a": 0, "b": 1}]})
        rows = len(follower.lewis.data)
        response = follower.apply_replicated(1, {"insert": [{"a": 0, "b": 1}]})
        assert response["duplicate"] is True
        assert len(follower.lewis.data) == rows
        assert follower.log.last_seq == 1

    def test_gap_raises_instead_of_skipping_ahead(self, follower):
        with pytest.raises(StoreError, match="replication gap"):
            follower.apply_replicated(5, {"insert": [{"a": 0, "b": 1}]})
        assert follower.log.last_seq == 0

    def test_injected_crash_fires_before_the_append(self, follower):
        with faults.plan({"repl.apply.crash": {"once": True}}):
            with pytest.raises(StoreError, match="injected replication apply"):
                follower.apply_replicated(1, {"insert": [{"a": 0, "b": 1}]})
            assert follower.log.last_seq == 0  # crash preceded durability
            # the retry (same seq, fault spent) succeeds cleanly
            response = follower.apply_replicated(
                1, {"insert": [{"a": 0, "b": 1}]}
            )
        assert response["applied"] is True
        assert follower.log.last_seq == 1


class TestEpochStore:
    def test_note_seen_ratchets_durably(self, tmp_path):
        epochs = EpochStore(tmp_path)
        assert epochs.max_seen() == 0
        assert epochs.note_seen(3) is True
        assert epochs.note_seen(3) is True  # at the floor: fine
        assert epochs.note_seen(2) is False  # below: fenced
        reopened = EpochStore(tmp_path)
        assert reopened.max_seen() == 3
        assert reopened.note_seen(2) is False  # fencing survives restart

    def test_advance_is_monotone_past_everything_seen(self, tmp_path):
        epochs = EpochStore(tmp_path)
        epochs.note_seen(7)
        assert epochs.advance("failover") == 8
        assert epochs.current() == 8
        assert EpochStore(tmp_path).current() == 8
        assert epochs.history()[-1]["reason"] == "failover"

    def test_crash_during_advance_leaves_old_epoch(self, tmp_path):
        epochs = EpochStore(tmp_path)
        epochs.note_seen(2)
        with faults.plan({"repl.promote": {"once": True}}):
            with pytest.raises(StoreError, match="promotion"):
                epochs.advance("doomed")
        assert epochs.current() == 0  # never led
        assert EpochStore(tmp_path).current() == 0
        assert epochs.advance("retry") == 3  # the retry still fences 2


class TestManagerFencing:
    def test_stale_epoch_batch_is_refused(self, tmp_path):
        registry = Registry(tmp_path / "store")
        try:
            registry.add("t", make_storable_lewis())
            manager = ReplicationManager(registry)
            manager.epochs.note_seen(5)
            stale = {"tenant": "t", "epoch": 4, "records": [], "last_seq": 0}
            with pytest.raises(FencedError, match="fencing floor 5"):
                manager.ingest_batch("t", stale)
            fresh = {"tenant": "t", "epoch": 5, "records": [], "last_seq": 0}
            assert manager.ingest_batch("t", fresh)["applied"] == 0
        finally:
            registry.close()

    @pytest.mark.parametrize("cursor_valid", [True, False])
    def test_sync_once_refuses_a_stale_epoch(self, tmp_path, cursor_valid):
        """Refused before it is applied, and before a resync it asks for."""
        registry = Registry(tmp_path / "store")
        try:
            registry.add("t", make_storable_lewis())
            stale = {"tenant": "t", "epoch": 4, "records": [], "last_seq": 0,
                     "cursor_valid": cursor_valid}
            manager = ReplicationManager(
                registry, role="follower", client=ShippedBatch(stale)
            )
            manager.epochs.note_seen(5)
            with pytest.raises(FencedError, match="fencing floor 5"):
                manager.sync_once("t")
            assert registry.get("t").log.last_seq == 0
        finally:
            registry.close()

    def test_sync_once_fences_each_batch_once(self, tmp_path, monkeypatch):
        leader = Registry(tmp_path / "leader")
        replica = Registry(tmp_path / "replica")
        try:
            leader.add("t", make_storable_lewis())
            replica.add("t", make_storable_lewis())
            put_rows(leader.get("t"), 2)
            batch = build_batch(leader.get("t"), cursor=0, epoch=5)
            manager = ReplicationManager(
                replica, role="follower", client=ShippedBatch(batch)
            )
            seen = []
            note_seen = manager.epochs.note_seen
            monkeypatch.setattr(
                manager.epochs, "note_seen",
                lambda epoch: seen.append(epoch) or note_seen(epoch),
            )
            assert manager.sync_once("t") is True
            assert seen == [5]
            assert replica.get("t").state_token == leader.get("t").state_token
        finally:
            replica.close()
            leader.close()


class ShippedBatch:
    """A leader client that ships one fixed batch."""

    def __init__(self, batch):
        self.batch = batch

    def fetch(self, tenant, cursor):
        return dict(self.batch)


class TestLagGauge:
    def test_lag_is_a_collector_sample_until_the_manager_is_gone(self, tmp_path):
        leader = Registry(tmp_path / "leader")
        replica = Registry(tmp_path / "replica")
        try:
            leader.add("lagged", make_storable_lewis())
            replica.add("lagged", make_storable_lewis())
            put_rows(leader.get("lagged"), 3)
            batch = build_batch(leader.get("lagged"), cursor=0, limit=1)
            manager = ReplicationManager(
                replica, role="follower", client=ShippedBatch(batch)
            )
            assert manager.sync_once("lagged") is False
            assert manager.lag("lagged") == 2

            metrics = obs.get_registry()
            series = 'repro_replication_lag_records{tenant="lagged"}'
            assert metrics.snapshot()["gauges"][series] == manager.lag("lagged")
            lines = metrics.to_prometheus().splitlines()
            assert (
                "# HELP repro_replication_lag_records "
                "Records this replica trails the leader by."
            ) in lines
            assert "# TYPE repro_replication_lag_records gauge" in lines
            assert f"{series} 2" in lines

            key = manager._collector_key
            del manager
            gc.collect()
            assert series not in metrics.snapshot()["gauges"]
            assert key not in metrics._collectors
        finally:
            replica.close()
            leader.close()

    def test_caught_up_replica_reads_zero(self, tmp_path):
        leader = Registry(tmp_path / "leader")
        replica = Registry(tmp_path / "replica")
        try:
            leader.add("level", make_storable_lewis())
            replica.add("level", make_storable_lewis())
            put_rows(leader.get("level"), 3)
            batch = build_batch(leader.get("level"), cursor=0)
            manager = ReplicationManager(
                replica, role="follower", client=ShippedBatch(batch)
            )
            assert manager.sync_once("level") is True
            assert manager.lag() == {"level": 0}
            series = 'repro_replication_lag_records{tenant="level"}'
            assert obs.get_registry().snapshot()["gauges"][series] == 0.0
        finally:
            replica.close()
            leader.close()

    def test_family_advertised_before_any_sync(self, tmp_path):
        replica = Registry(tmp_path / "replica")
        try:
            replica.add("quiet", make_storable_lewis())
            manager = ReplicationManager(
                replica, role="follower", client=ShippedBatch({})
            )
            assert manager.lag() == {}
            lines = obs.get_registry().to_prometheus().splitlines()
            assert "# TYPE repro_replication_lag_records gauge" in lines
            assert not any(
                line.startswith("repro_replication_lag_records{")
                and 'tenant="quiet"' in line
                for line in lines
            )
        finally:
            replica.close()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class ScriptedManager:
    """Answers ``sync_once`` from a script of results and exceptions,
    then ``True`` (caught up) forever; records the tailer's reported
    error as each round starts."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.tailer = None
        self.errors_seen = []

    def sync_once(self, tenant):
        self.calls += 1
        self.errors_seen.append(self.tailer.last_error)
        step = self.script.pop(0) if self.script else True
        if isinstance(step, Exception):
            raise step
        return step


class TestReplicaTailer:
    def _start(self, script):
        manager = ScriptedManager(script)
        tailer = ReplicaTailer(manager, "t")
        manager.tailer = tailer
        tailer.start()
        return manager, tailer

    def test_behind_repolls_at_once_and_caught_up_waits(self, monkeypatch):
        monkeypatch.setattr(tailer_module, "POLL_INTERVAL", 60.0)
        manager, tailer = self._start([False] * 4)
        try:
            wait_for(lambda: tailer.rounds == 5)
            time.sleep(0.1)
            assert manager.calls == 5  # caught up: waiting out the interval
            assert tailer.status() == {
                "tenant": "t", "alive": True, "rounds": 5, "errors": 0,
                "last_error": None,
            }
            started = time.monotonic()
        finally:
            tailer.stop()
        assert time.monotonic() - started < 5.0  # the wait is interruptible
        assert tailer.status()["alive"] is False and tailer.stopped()

    def test_error_is_reported_until_the_next_success(self, monkeypatch):
        monkeypatch.setattr(tailer_module, "POLL_INTERVAL", 60.0)
        manager, tailer = self._start([RuntimeError("leader down")])
        try:
            wait_for(lambda: tailer.rounds == 1)
            assert manager.errors_seen == [None, "RuntimeError: leader down"]
            assert tailer.errors == 1 and tailer.last_error is None
        finally:
            tailer.stop()


class CannedLeader(http.server.BaseHTTPRequestHandler):
    """Answers GETs from ``server.routes`` (path without query ->
    ``(status, body)``) and records every requested path."""

    def do_GET(self):
        self.server.paths.append(self.path)
        status, body = self.server.routes.get(
            self.path.split("?")[0], (404, b"no such route")
        )
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def canned_leader():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), CannedLeader)
    server.routes = {}
    server.paths = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def client_for(server) -> LogShipClient:
    host, port = server.server_address[:2]
    return LogShipClient(f"http://{host}:{port}/")  # trailing slash dropped


class TestLogShipClient:
    def test_fetch_asks_for_every_record_after_the_cursor(self, canned_leader):
        batch = {"records": [], "last_seq": 9, "cursor_valid": True}
        canned_leader.routes["/v1/a%20b/log"] = (200, json.dumps(batch).encode())
        assert client_for(canned_leader).fetch("a b", 7) == batch
        assert canned_leader.paths == ["/v1/a%20b/log?cursor=7"]

    def test_http_error_is_a_store_error_with_its_status(self, canned_leader):
        with pytest.raises(StoreError, match="404.*no such route"):
            client_for(canned_leader).fetch("t", 0)

    def test_unparseable_json_is_a_store_error(self, canned_leader):
        canned_leader.routes["/v1/t/log"] = (200, b"{not json")
        with pytest.raises(StoreError, match="unparseable JSON"):
            client_for(canned_leader).fetch("t", 0)

    def test_tenants_reads_a_list_or_a_document(self, canned_leader):
        client = client_for(canned_leader)
        canned_leader.routes["/v1/registry"] = (200, b'["x", "y"]')
        assert client.tenants() == ["x", "y"]
        canned_leader.routes["/v1/registry"] = (200, b'{"tenants": ["z"]}')
        assert client.tenants() == ["z"]

    def test_healthy_follows_the_healthz_status(self, canned_leader):
        client = client_for(canned_leader)
        canned_leader.routes["/healthz"] = (200, b"{}")
        assert client.healthy() is True
        canned_leader.routes["/healthz"] = (503, b"draining")
        assert client.healthy() is False


class TestPromotionCatchUp:
    def test_catch_up_reads_the_dead_store_without_writing(self, tmp_path):
        dead = Registry(tmp_path / "dead")
        dead.add("t", make_storable_lewis())
        put_rows(dead.get("t"), 3)
        dead.close()
        dead_wal = dead.store.wal_path("t")
        with open(dead_wal, "ab") as fh:
            fh.write(b'{"crc":"0","delete":[],"ins')  # died mid-append
        before = dead_wal.read_bytes()

        registry = Registry(tmp_path / "replica")
        try:
            registry.add("t", make_storable_lewis())
            manager = ReplicationManager(
                registry, role="follower", leader_url="http://127.0.0.1:9"
            )
            out = manager.promote(catchup_store=str(tmp_path / "dead"))
            assert out["caught_up"] == {"t": 3}
            assert registry.get("t").log.last_seq == 3
        finally:
            registry.close()
        assert dead_wal.read_bytes() == before


class StoreClient:
    """Ships the leader's snapshots straight from its store."""

    def __init__(self, leader_store):
        self.leader_store = leader_store

    def manifest(self, tenant):
        return self.leader_store.manifest(tenant)

    def object(self, tenant, digest):
        return self.leader_store.get_bytes(digest)


class RacingClient(StoreClient):
    """Ships the leader's snapshot from its store; a read of the tenant on
    the replica lands while the manifest is in flight."""

    def __init__(self, leader_store, replica):
        super().__init__(leader_store)
        self.replica = replica

    def manifest(self, tenant):
        self.replica.get(tenant)  # a concurrent request mid-resync
        return super().manifest(tenant)


class TestSnapshotTransfer:
    def test_bootstrap_copies_every_blob_its_manifest_names(self, tmp_path):
        """An older manifest also names an ``engine`` tensor archive; the
        follower copies it like any other blob, so its own manifest names
        no missing object, and restores without reading it."""
        leader = Registry(tmp_path / "leader")
        replica = Registry(tmp_path / "replica")
        try:
            leader.add("t", make_storable_lewis())
            old = leader.store.manifest("t")
            del old["snapshot_id"]
            old["blobs"]["engine"] = leader.store.put_bytes(b"older tensor archive")
            leader.store.write_manifest("t", old)
            manager = ReplicationManager(
                replica, role="follower", client=StoreClient(leader.store)
            )
            session = manager.bootstrap("t")
            assert replica.store.manifest("t")["blobs"] == old["blobs"]
            assert all(replica.store.has(d) for d in old["blobs"].values())
            assert session.state_token == leader.get("t").state_token
        finally:
            replica.close()
            leader.close()


class TestResync:
    def test_a_read_racing_the_resync_cannot_pin_stale_state(self, tmp_path):
        leader = Registry(tmp_path / "leader")
        replica = Registry(tmp_path / "replica")
        try:
            leader.add("t", make_storable_lewis())
            replica.add("t", make_storable_lewis())
            put_rows(leader.get("t"), 3)
            leader.snapshot("t")  # compacts the leader's log past seq 0
            manager = ReplicationManager(
                replica,
                role="follower",
                client=RacingClient(leader.store, replica),
            )
            session = manager.resync("t")
            expected = leader.get("t")
            assert session.log.last_seq == 3
            assert session.table_version == expected.table_version
            assert (
                session.lewis.estimator.engine.state_digest()
                == expected.lewis.estimator.engine.state_digest()
            )
        finally:
            replica.close()
            leader.close()
