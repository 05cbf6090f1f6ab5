"""/readyz under degradation: each subsystem check flips readiness alone."""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service.server import create_server
from repro.store import DeltaLog, DurableSession, Registry


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


def make_session(tmp_path) -> DurableSession:
    rng = np.random.default_rng(11)
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
    return DurableSession(lewis, DeltaLog(tmp_path / "wal.jsonl"), tenant="t")


def get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    session = make_session(tmp_path_factory.mktemp("readyz"))
    server = create_server(session=session, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield server, session, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.monitors.close()
    session.close()


class TestReadyzDegradation:
    def test_healthy_server_reports_every_subsystem_ok(self, served):
        _server, _session, base = served
        status, report = get(base, "/readyz")
        assert status == 200
        assert report["status"] == "ready"
        checks = report["checks"]
        for name in ("accepting", "queue", "wal"):
            assert checks[name]["ok"], (name, checks[name])
        assert checks["wal"]["degraded"] is None

    def test_draining_flips_accepting_but_not_liveness(self, served):
        server, _session, base = served
        server.draining = True
        try:
            status, report = get(base, "/readyz")
            assert status == 503
            assert report["status"] == "unavailable"
            assert report["checks"]["accepting"] == {
                "ok": False, "draining": True,
            }
            assert report["request_id"]  # joinable to traces even when failing
            status, body = get(base, "/healthz")
            assert status == 200  # liveness never reflects drain state
            assert body["draining"] is True
        finally:
            server.draining = False

    def test_read_only_degraded_wal_flips_wal_check(self, served):
        _server, session, base = served
        session.log._degraded = "fsync failed: injected disk full"
        try:
            status, report = get(base, "/readyz")
            assert status == 503
            wal = report["checks"]["wal"]
            assert wal["ok"] is False
            assert "disk full" in wal["degraded"]
            # the other checks are unaffected: degradation is labeled
            assert report["checks"]["queue"]["ok"]
            assert report["checks"]["accepting"]["ok"]
        finally:
            session.log._degraded = None

    def test_saturated_queue_flips_queue_check(self, served):
        _server, session, base = served
        real_stats = session.stats

        def saturated():
            stats = real_stats()
            stats["scheduler"] = dict(
                stats["scheduler"], queue_depth=8, max_queue=8, shed=3
            )
            return stats

        session.stats = saturated
        try:
            status, report = get(base, "/readyz")
            assert status == 503
            queue = report["checks"]["queue"]
            assert queue == {
                "ok": False, "depth": 8, "max_queue": 8, "shed": 3,
                "expired": queue["expired"],
            }
        finally:
            del session.stats

    def test_unwritable_store_root_flips_store_check(
        self, tmp_path, monkeypatch
    ):
        registry = Registry(tmp_path / "store")
        server = create_server(registry=registry, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            status, report = get(base, "/readyz")
            assert status == 200
            assert report["checks"]["store"]["writable"] is True

            real_access = os.access
            root = str(registry.store.root)

            def read_only(path, mode, **kwargs):
                if str(path).startswith(root) and mode & os.W_OK:
                    return False
                return real_access(path, mode, **kwargs)

            monkeypatch.setattr(
                "repro.service.server.os.access", read_only
            )
            status, report = get(base, "/readyz")
            assert status == 503
            store = report["checks"]["store"]
            assert store["ok"] is False
            assert store["writable"] is False
            assert report["request_id"]
        finally:
            server.shutdown()
            server.server_close()
            if server.replication is not None:
                server.replication.stop()
            server.monitors.close()
            registry.close()
