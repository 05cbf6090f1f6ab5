"""Service-layer failure containment: drain, shed, deadlines, isolation.

The HTTP front-end's side of the chaos contract: draining replicas
refuse new work but stay observable, overload becomes 429 + Retry-After
instead of unbounded queueing, expired deadlines become 504, anytime
degradation is labeled and never cached, and one failing monitor never
starves its neighbours.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.faults as faults
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor.monitors import MonitorSet
from repro.service import ExplainerSession
from repro.service.server import create_server
from repro.service.updates import TableDelta
from repro.utils.exceptions import OverloadedError


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


def make_lewis(seed: int = 7, n: int = 200) -> Lewis:
    rng = np.random.default_rng(seed)
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )
    return Lewis(
        tiny_model,
        data=table,
        feature_names=["a", "b"],
        attributes=["a", "b", "sex"],
        infer_orderings=False,
    )


@pytest.fixture(scope="module")
def server():
    session = ExplainerSession(make_lewis(), default_actionable=["a", "b"])
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    session.close()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture()
def session():
    session = ExplainerSession(make_lewis(), default_actionable=["a", "b"])
    yield session
    session.close()


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read()), response.headers


def post(url: str, payload: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read()), response.headers


def http_error(fn, *args, **kwargs) -> tuple[int, dict, dict]:
    try:
        fn(*args, **kwargs)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers
    raise AssertionError("expected an HTTP error")


class TestHealthEndpoints:
    def test_healthz_is_pure_liveness(self, base_url):
        status, body, _ = get(f"{base_url}/healthz")
        assert status == 200
        assert body == {"status": "alive", "draining": False}

    def test_readyz_reports_per_subsystem_checks(self, base_url):
        status, body, _ = get(f"{base_url}/readyz")
        assert status == 200
        assert body["status"] == "ready"
        checks = body["checks"]
        assert checks["accepting"] == {"ok": True, "draining": False}
        assert checks["queue"]["ok"] and checks["queue"]["max_queue"] > 0

    def test_versioned_paths_work_too(self, base_url):
        assert get(f"{base_url}/v1/healthz")[0] == 200
        assert get(f"{base_url}/v1/readyz")[0] == 200


class TestDraining:
    def test_draining_sheds_work_but_stays_observable(self, base_url, server):
        server.draining = True
        try:
            # Liveness keeps answering 200: the supervisor must not kill
            # a replica that is still draining in-flight requests.
            status, body, _ = get(f"{base_url}/healthz")
            assert status == 200 and body["draining"] is True
            # Readiness flips so the balancer stops routing here.
            status, body, headers = http_error(get, f"{base_url}/readyz")
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert body["status"] == "unavailable"
            assert body["checks"]["accepting"]["ok"] is False
            # Metrics stay scrapeable through the drain.
            req = urllib.request.Request(f"{base_url}/metrics")
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.status == 200
            # New work bounces with a retry hint — GET and POST alike.
            status, body, headers = http_error(get, f"{base_url}/v1/health")
            assert status == 503 and headers.get("Retry-After") == "1"
            assert "draining" in body["error"]
            status, _body, headers = http_error(
                post, f"{base_url}/v1/recourse", {"index": 0}
            )
            assert status == 503 and headers.get("Retry-After") == "1"
        finally:
            server.draining = False
        # Back to normal once the flag clears.
        assert get(f"{base_url}/v1/health")[0] == 200


class TestLoadShedding:
    def test_overload_maps_to_429_with_retry_after(
        self, base_url, server, monkeypatch
    ):
        def shed(request, **kwargs):
            raise OverloadedError(
                "request queue full (1 pending); retry later",
                retry_after_s=3.2,
            )

        monkeypatch.setattr(server.session, "handle", shed)
        status, body, headers = http_error(
            post, f"{base_url}/v1/recourse", {"index": 0}
        )
        assert status == 429
        assert headers.get("Retry-After") == "3"
        assert "overloaded" in body["error"]

    def test_queue_bound_is_wired_to_the_scheduler(self, server):
        scheduler = server.session.stats()["scheduler"]
        assert scheduler["max_queue"] > 0
        assert scheduler["shed"] == 0


class TestDeadlines:
    def test_expired_deadline_maps_to_504(self, base_url, server):
        index = int(server.session.lewis.negative_indices()[0])
        status, body, _ = http_error(
            post,
            f"{base_url}/v1/recourse",
            {"index": index, "alpha": 0.55},
            headers={"X-Repro-Deadline-Ms": "0.01"},
        )
        assert status == 504
        assert "deadline" in body["error"]

    def test_malformed_deadline_header_is_a_client_error(self, base_url):
        status, body, _ = http_error(
            post,
            f"{base_url}/v1/health",
            {},
            headers={"X-Repro-Deadline-Ms": "soon"},
        )
        assert status == 400
        assert "X-Repro-Deadline-Ms" in body["error"]

    def test_tight_deadline_degrades_to_labeled_anytime(
        self, base_url, server, monkeypatch
    ):
        # A 30s budget under a (forced) 600s anytime floor: the session
        # swaps the cohort solve exact → anytime and must say so in the
        # envelope. (Single-index recourse never degrades — only the
        # expensive batch path sits on the ladder.)
        monkeypatch.setenv("REPRO_ANYTIME_MS", "600000")
        indices = [int(i) for i in server.session.lewis.negative_indices()[:4]]
        payload = {"indices": indices, "alpha": 0.6}
        status, body, _ = post(
            f"{base_url}/v1/recourse/batch",
            payload,
            headers={"X-Repro-Deadline-Ms": "30000"},
        )
        assert status == 200
        assert body["degraded"] is True
        assert body["degraded_reason"] == "deadline"
        assert body["result"]["degraded"] is True
        assert body["cached"] is False

        # The degraded answer was never cached: the same request without
        # a deadline recomputes the exact answer...
        status, body, _ = post(f"{base_url}/v1/recourse/batch", payload)
        assert status == 200
        assert "degraded" not in body
        assert body["cached"] is False
        # ...and *that* one does land in the cache.
        status, body, _ = post(f"{base_url}/v1/recourse/batch", payload)
        assert body["cached"] is True and "degraded" not in body


def add_score_monitor(monitors: MonitorSet, attribute: str = "a") -> str:
    return monitors.add(
        {
            "kind": "score",
            "params": {"attribute": attribute, "value": 2, "baseline": 0},
            "threshold": 0.05,
        }
    )["id"]


def push_update(session: ExplainerSession) -> None:
    session.update(
        TableDelta(insert=({"a": 2, "b": 2, "sex": "F"},), delete=())
    )


class TestMonitorIsolation:
    def test_one_bad_monitor_never_starves_the_rest(self, session):
        monitors = MonitorSet(session)
        m1 = add_score_monitor(monitors, "a")
        m2 = add_score_monitor(monitors, "b")
        push_update(session)

        # every=2 fires on the second evaluation: m1 (first in
        # registration order) refreshes, m2's compute blows up.
        with faults.plan({"monitor.refresh": {"every": 2}}):
            out = monitors.refresh()
        assert out["refreshed"] == 1
        assert out["failed"] == 1
        assert monitors.stats()["refresh_failures"] == 1

        # The healthy monitor advanced; the failed one holds its cursor
        # so the next refresh retries the same range.
        assert monitors.get(m1)["cursor"] > monitors.get(m2)["cursor"]

        # The failure is a first-class, typed alert on the watch stream.
        watched = monitors.watch(cursor=0, timeout=0)
        failures = [
            a
            for a in watched["alerts"]
            if a["detector"] == "refresh_failure"
        ]
        assert len(failures) == 1
        assert failures[0]["monitor_id"] == m2
        assert failures[0]["direction"] == "error"

        # A clean refresh heals: only the failed monitor has catching
        # up to do, and both cursors converge.
        out = monitors.refresh()
        assert out["refreshed"] == 1 and out["failed"] == 0
        assert monitors.get(m1)["cursor"] == monitors.get(m2)["cursor"]

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_seeded_failure_matrix_accounting(self, session, seed):
        """Probabilistic refresh faults: counters and alerts reconcile."""
        monitors = MonitorSet(session)
        monitor_id = add_score_monitor(monitors, "a")
        refreshed = failed = 0
        with faults.plan(
            {"monitor.refresh": {"probability": 0.5}}, seed=seed
        ) as plan:
            for _ in range(6):
                push_update(session)
                out = monitors.refresh()
                refreshed += out["refreshed"]
                failed += out["failed"]
            counts = plan.counts()["monitor.refresh"]
        assert refreshed + failed == 6
        assert counts == {"evaluations": 6, "fired": failed}
        stats = monitors.stats()
        assert stats["refresh_failures"] == failed
        alerts = monitors.watch(cursor=0, timeout=0)["alerts"]
        assert (
            sum(a["detector"] == "refresh_failure" for a in alerts) == failed
        )
        # After the plan is gone one refresh catches all the way up.
        out = monitors.refresh()
        assert out["failed"] == 0
        assert monitors.get(monitor_id)["cursor"] == session.table_version
