"""Leader/follower serving over HTTP: shipping, pins, promotion, fencing.

One module-scoped cluster (leader + follower, in-process servers on
ephemeral ports) walked through the failover lifecycle in test order:
converge, pin reads, refuse follower writes, snapshot-resync across a
compaction gap, promote with catch-up from the dead leader's disk, and
fence the deposed epoch.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.replication import FencedError
from repro.service.server import create_server
from repro.store import ArtifactStore, Registry, create_tenant

NROWS = 120


def make_lewis(seed: int = 7, n: int = NROWS) -> Lewis:
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


def http(base, path, payload=None, headers=None, method=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method or ("POST" if payload is not None else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=20) as response:
            return response.status, json.loads(response.read() or b"{}"), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            parsed = json.loads(body) if body else {}
        except ValueError:
            parsed = {"raw": body.decode("utf-8", "replace")}
        return exc.code, parsed, dict(exc.headers)


def start(server):
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def stop(server):
    server.shutdown()
    server.server_close()
    if server.replication is not None:
        server.replication.stop()
    server.monitors.close()


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("repl")
    leader_store = ArtifactStore(tmp / "leader")
    create_tenant(leader_store, "t", make_lewis()).close()
    leader = create_server(registry=Registry(leader_store), port=0)
    follower_registry = Registry(tmp / "follower")
    state = SimpleNamespace(
        tmp=tmp,
        leader=leader,
        leader_base=start(leader),
        leader_root=tmp / "leader",
        follower=None,
        follower_base=None,
        follower_registry=follower_registry,
        third=None,
        tokens=[],
        acked=0,
    )
    state.follower = create_server(
        registry=follower_registry, port=0, follow=state.leader_base
    )
    state.follower_base = start(state.follower)
    yield state
    for server in filter(None, (state.third, state.follower, state.leader)):
        try:
            stop(server)
        except Exception:
            pass


def leader_write(cluster, row):
    status, body, _ = http(
        cluster.leader_base, "/v1/t/update", {"insert": [row]}
    )
    assert status == 200, body
    cluster.acked += 1
    cluster.tokens.append(body["state_token"])
    return body


def follower_caught_up(cluster):
    status, body, _ = http(cluster.follower_base, "/v1/t/health")
    return status == 200 and body.get("last_seq") == cluster.acked


class TestReplicatedServing:
    def test_follower_bootstraps_and_converges_bit_identically(self, cluster):
        for i in range(4):
            leader_write(cluster, {"a": i % 3, "b": 1})
        assert wait_until(lambda: follower_caught_up(cluster))
        _, leader_health, _ = http(cluster.leader_base, "/v1/t/health?digest=1")
        _, follower_health, _ = http(
            cluster.follower_base, "/v1/t/health?digest=1"
        )
        assert follower_health["state_token"] == leader_health["state_token"]
        assert follower_health["table_version"] == leader_health["table_version"]
        assert follower_health["state_digest"] == leader_health["state_digest"]
        assert follower_health["n_rows"] == NROWS + 4

        status, repl, _ = http(cluster.follower_base, "/v1/replication")
        assert status == 200
        assert repl["role"] == "follower"
        assert repl["leader_url"] == cluster.leader_base
        assert repl["lag_records"].get("t") == 0
        assert repl["tailers"]["t"]["alive"] is True

    def test_log_endpoint_ships_records_with_geometry(self, cluster):
        status, batch, _ = http(cluster.leader_base, "/v1/t/log?cursor=0")
        assert status == 200
        assert batch["epoch"] == 0
        assert batch["cursor_valid"] is True
        assert [r["seq"] for r in batch["records"]] == list(
            range(1, cluster.acked + 1)
        )
        status, _, _ = http(cluster.leader_base, "/v1/t/log?cursor=-3")
        assert status == 400
        status, _, _ = http(cluster.leader_base, "/v1/nope/log?cursor=0")
        assert status == 404

    def test_read_your_writes_pin_honored_and_refused(self, cluster):
        assert wait_until(lambda: follower_caught_up(cluster))
        status, body, _ = http(
            cluster.follower_base,
            "/v1/t/explain/global",
            {},
            headers={"X-Repro-Min-State": cluster.tokens[-1]},
        )
        assert status == 200, body
        status, body, headers = http(
            cluster.follower_base,
            "/v1/t/explain/global",
            {},
            headers={"X-Repro-Min-State": "token-this-replica-never-saw"},
        )
        assert status == 503
        assert body["request_id"]
        assert headers.get("Retry-After")
        assert headers.get("X-Repro-State")  # what the replica does have

    def test_follower_refuses_writes_with_leader_hint(self, cluster):
        status, body, headers = http(
            cluster.follower_base, "/v1/t/update", {"insert": [{"a": 0, "b": 0}]}
        )
        assert status == 503
        assert body["leader_url"] == cluster.leader_base
        assert body["request_id"]
        assert headers.get("Retry-After")
        # reads keep working on the same replica
        status, _, _ = http(cluster.follower_base, "/v1/t/explain/global", {})
        assert status == 200

    def test_compaction_gap_forces_snapshot_resync(self, cluster):
        # take the follower offline, advance + checkpoint the leader so
        # the shipped cursor now points into compacted history
        cluster.follower.replication.stop()
        for i in range(3):
            leader_write(cluster, {"a": i % 3, "b": 2})
        status, checkpoint, _ = http(
            cluster.leader_base, "/v1/registry/t/snapshot", {}
        )
        assert status == 200, checkpoint
        leader_log = cluster.leader.registry.get("t").log
        assert leader_log.first_live_seq > cluster.acked - 3  # compacted

        cluster.follower.replication.ensure_tailer("t")
        assert wait_until(lambda: follower_caught_up(cluster))
        _, leader_health, _ = http(cluster.leader_base, "/v1/t/health?digest=1")
        _, follower_health, _ = http(
            cluster.follower_base, "/v1/t/health?digest=1"
        )
        assert follower_health["state_digest"] == leader_health["state_digest"]
        # the resynced follower names the state as the leader does, so a
        # read pinned to the leader's token is served here
        assert follower_health["table_version"] == leader_health["table_version"]
        assert follower_health["state_token"] == leader_health["state_token"]
        follower_log = cluster.follower_registry.get("t").log
        assert follower_log.stats()["compacted_through"] > 0  # restored, not replayed

    def test_promotion_catches_up_from_dead_leaders_disk(self, cluster):
        cluster.follower.replication.stop()
        for i in range(2):  # acked by the leader, never shipped
            leader_write(cluster, {"a": i % 3, "b": 0})
        _, leader_health, _ = http(cluster.leader_base, "/v1/t/health?digest=1")
        stop(cluster.leader)  # fail-stop: the disk survives

        status, body, _ = http(
            cluster.follower_base,
            "/v1/replication/promote",
            {"catchup_store": str(cluster.leader_root), "reason": "test failover"},
        )
        assert status == 200, body
        assert body["role"] == "leader"
        assert body["epoch"] == 1
        assert body["caught_up"]["t"] == 2  # the unshipped tail, recovered

        # zero acked-write loss: the new leader converged bit-identically
        _, promoted_health, _ = http(
            cluster.follower_base, "/v1/t/health?digest=1"
        )
        assert promoted_health["last_seq"] == cluster.acked
        assert promoted_health["state_digest"] == leader_health["state_digest"]

        # and serves writes now
        status, body, _ = http(
            cluster.follower_base, "/v1/t/update", {"insert": [{"a": 1, "b": 1}]}
        )
        assert status == 200
        cluster.acked += 1
        status, repl, _ = http(cluster.follower_base, "/v1/replication")
        assert repl["role"] == "leader"
        assert repl["epoch"]["current"] == 1

    def test_deposed_epoch_is_fenced_by_new_followers(self, cluster):
        cluster.third = create_server(
            registry=Registry(cluster.tmp / "third"),
            port=0,
            follow=cluster.follower_base,  # the promoted leader
        )
        third_base = start(cluster.third)
        assert wait_until(
            lambda: http(third_base, "/v1/t/health")[1].get("last_seq")
            == cluster.acked
        )
        # the old leader's epoch-0 tail arrives late: refused durably
        stale = {"tenant": "t", "epoch": 0, "records": [], "last_seq": 0}
        with pytest.raises(FencedError, match="fencing floor 1"):
            cluster.third.replication.ingest_batch("t", stale)
        _, repl, _ = http(third_base, "/v1/replication")
        assert repl["epoch"]["max_seen"] == 1
