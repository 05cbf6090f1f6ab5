"""Multi-tenant HTTP front end: registry routes, tenant scoping, shutdown."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.store import Registry
from repro.service.server import create_server

NAMES = ("a", "b")


def make_lewis(seed: int, n: int = 150) -> Lewis:
    rng = np.random.default_rng(seed)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 3, n).tolist(),
    }
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, list(NAMES), "y", seed=seed)
    return Lewis(
        model,
        data=table.select(list(NAMES)),
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    registry = Registry(tmp_path_factory.mktemp("store"))
    registry.add("alpha", make_lewis(1), default_actionable=["a", "b"])
    registry.add("beta", make_lewis(2))
    server = create_server(registry=registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, registry
    server.shutdown()
    server.server_close()
    registry.close()


@pytest.fixture(scope="module")
def base_url(served):
    host, port = served[0].server_address[:2]
    return f"http://{host}:{port}"


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def delete(url: str):
    request = urllib.request.Request(url, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_error(fn, *args) -> tuple[int, dict]:
    try:
        fn(*args)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


class TestRegistryEndpoints:
    def test_listing(self, base_url):
        status, body = get(f"{base_url}/v1/registry")
        assert status == 200
        assert set(body["tenants"]) == {"alpha", "beta"}
        for info in body["tenants"].values():
            assert set(info) == {"loaded", "snapshots"}

    def test_tenant_detail(self, base_url):
        status, body = get(f"{base_url}/v1/registry/alpha")
        assert status == 200
        assert body["name"] == "alpha"
        assert body["snapshots"]
        assert set(body["latest"]) == {
            "snapshot_id", "wal_seq", "fingerprint", "n_rows",
        }

    def test_unknown_tenant_detail_404(self, base_url):
        code, body = http_error(get, f"{base_url}/v1/registry/ghost")
        assert code == 404 and "error" in body

    def test_snapshot_endpoint(self, base_url):
        post(f"{base_url}/v1/alpha/update", {"insert": [{"a": 0, "b": 1}]})
        status, body = post(f"{base_url}/v1/registry/alpha/snapshot", {})
        assert status == 200
        assert body["name"] == "alpha"
        assert int(body["snapshot_id"]) >= 2

    def test_evict_endpoint(self, served, base_url):
        _server, registry = served
        get(f"{base_url}/v1/beta/health")  # ensure loaded
        status, body = post(f"{base_url}/v1/registry/beta/evict", {})
        assert status == 200 and body["evicted"] is True
        assert "beta" not in registry.loaded()

    def test_delete_removes_tenant(self, served, base_url):
        _server, registry = served
        registry.add("doomed", make_lewis(3))
        status, body = delete(f"{base_url}/v1/registry/doomed")
        assert status == 200 and body["removed"] is True
        code, _ = http_error(get, f"{base_url}/v1/doomed/health")
        assert code == 404


def test_reserved_route_literals_stay_in_sync():
    """server.RESERVED_SEGMENTS and artifacts.RESERVED_TENANT_NAMES are
    deliberately duplicated literals (importing across the packages
    would cycle); drift would let users create HTTP-unreachable tenants."""
    from repro.service.server import RESERVED_SEGMENTS
    from repro.store.artifacts import RESERVED_TENANT_NAMES

    assert set(RESERVED_SEGMENTS) == set(RESERVED_TENANT_NAMES)


class TestProcessLevelEndpoints:
    def test_registry_only_health_answers_without_loading(self, served, base_url):
        _server, registry = served
        for name in list(registry.loaded()):
            registry.evict(name)
        status, body = get(f"{base_url}/v1/health")
        assert status == 200
        assert body["status"] == "ok" and body["mode"] == "registry"
        assert body["tenants"] >= 2
        assert registry.loaded() == []  # liveness did not force a restore

    def test_registry_only_stats(self, base_url):
        status, body = get(f"{base_url}/v1/stats")
        assert status == 200
        assert "tenants" in body and "sessions" in body


class TestTenantScopedEndpoints:
    def test_health_and_stats(self, base_url):
        status, body = get(f"{base_url}/v1/alpha/health")
        assert status == 200
        assert body["tenant"] == "alpha"
        status, body = get(f"{base_url}/v1/alpha/stats")
        assert status == 200
        assert body["tenant"] == "alpha"
        assert "wal" in body

    def test_explain_and_cache_are_per_tenant(self, base_url):
        status, first = post(
            f"{base_url}/v1/alpha/explain/global", {"max_pairs_per_attribute": 4}
        )
        assert status == 200
        assert set(first["result"]["ranking"]) == {"a", "b"}
        _status, second = post(
            f"{base_url}/v1/alpha/explain/global", {"max_pairs_per_attribute": 4}
        )
        assert second["cached"] is True
        # the twin query against the other tenant is not cross-served
        _status, other = post(
            f"{base_url}/v1/beta/explain/global", {"max_pairs_per_attribute": 4}
        )
        assert other["cached"] is False

    def test_recourse_uses_tenant_default_actionable(self, base_url):
        status, body = get(f"{base_url}/v1/alpha/health")
        assert status == 200
        status, body = post(f"{base_url}/v1/alpha/recourse", {"index": 0})
        assert status in (200, 409)  # solvable or provably infeasible

    def test_update_round_trips_through_wal(self, served, base_url):
        _server, registry = served
        before = len(registry.get("alpha").lewis.data)
        status, body = post(
            f"{base_url}/v1/alpha/update", {"insert": [{"a": 2, "b": 2}]}
        )
        assert status == 200
        assert body["result"]["n_rows"] == before + 1
        assert body["result"]["wal_seq"] >= 1

    def test_unknown_tenant_404(self, base_url):
        code, body = http_error(
            post, f"{base_url}/v1/ghost/explain/global", {}
        )
        assert code == 404 and "unknown tenant" in body["error"]

    def test_tenant_with_bad_endpoint_404(self, base_url):
        code, _ = http_error(post, f"{base_url}/v1/alpha/nonsense", {})
        assert code == 404

    def test_no_default_session_404(self, base_url):
        code, body = http_error(post, f"{base_url}/v1/explain/global", {})
        assert code == 404 and "tenant" in body["error"]

    def test_client_errors_still_400(self, base_url):
        code, body = http_error(
            post,
            f"{base_url}/v1/alpha/explain/local",
            {"index": 1, "individual": {"a": 0}},
        )
        assert code == 400


class TestGracefulShutdown:
    def test_drain_answers_inflight_requests(self, tmp_path):
        import time

        registry = Registry(tmp_path / "store")
        registry.add("alpha", make_lewis(9))
        session = registry.get("alpha")

        # Slow the engine work down and signal when a request is truly
        # in flight, so shutdown provably races an accepted request.
        started = threading.Event()
        original = session.lewis.explain_global

        def slow_explain(**kwargs):
            started.set()
            time.sleep(0.3)
            return original(**kwargs)

        session.lewis.explain_global = slow_explain
        server = create_server(registry=registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        results: list = []

        def inflight_request():
            results.append(
                post(
                    f"http://{host}:{port}/v1/alpha/explain/global",
                    {"max_pairs_per_attribute": 8},
                )
            )

        worker = threading.Thread(target=inflight_request)
        worker.start()
        assert started.wait(timeout=10)
        server.shutdown()  # stop accepting while the request is in flight
        server.server_close()  # drains: joins the handler thread
        worker.join(timeout=30)
        thread.join(timeout=10)
        registry.close()
        assert results and results[0][0] == 200
