"""Every row of the HTTP route table, driven from the table itself.

Malformed input — a body that is not a JSON object, a body cut short,
wrong-typed fields, an unknown tenant — must answer 4xx with the
request id in the body on every route, against a default-session server
and a registry server alike; never a 5xx and never a hang.  The explicit
cases pin inputs that must not produce a 500, a hang, a keep-alive stall
or a silently accepted value.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest
from lane import hold_lane

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import ExplainerSession
from repro.service.server import RESERVED_SEGMENTS, ROUTES, create_server
from repro.store import Registry

TENANT = "alpha"

#: values for the ``{name}`` captures of the route patterns
PARAMS = {"monitor_id": "m404", "tenant": TENANT, "digest": "0" * 64}

#: per route: wrong-typed inputs, each {"query": str, "body": dict,
#: "params": dict}; [] for routes that take no input.  Every route must
#: be listed, so a new route gets its cases written with it.
WRONG_TYPED: dict[tuple[str, str], list[dict]] = {
    ("GET", "/healthz"): [],
    ("GET", "/readyz"): [],
    ("GET", "/metrics"): [],
    ("GET", "/v1/traces"): [{"query": "min_ms=fast"}, {"query": "limit=1.5"}],
    ("GET", "/v1/health"): [],
    ("GET", "/v1/stats"): [],
    ("GET", "/v1/log"): [
        {"query": "cursor=abc"}, {"query": "max=x"}, {"query": "cursor=-3"},
    ],
    ("GET", "/v1/monitors"): [],
    ("GET", "/v1/monitors/{monitor_id}"): [],
    ("GET", "/v1/watch"): [{"query": "cursor=abc"}, {"query": "timeout=bogus"}],
    ("GET", "/v1/registry"): [],
    ("GET", "/v1/registry/{tenant}"): [{"params": {"tenant": ".."}}],
    ("GET", "/v1/registry/{tenant}/manifest"): [{"params": {"tenant": ".."}}],
    ("GET", "/v1/registry/{tenant}/object/{digest}"): [
        {"params": {"digest": ".."}}, {"params": {"digest": "."}},
        {"params": {"digest": "xyz"}},
    ],
    ("GET", "/v1/replication"): [],
    ("POST", "/v1/explain/global"): [
        {"body": {"attributes": [[1]]}},
        {"body": {"attributes": "a"}},
        {"body": {"max_pairs_per_attribute": 0}},
        {"body": {"max_pairs_per_attribute": -2}},
        {"body": {"max_pairs_per_attribute": "8"}},
    ],
    ("POST", "/v1/explain/context"): [
        {"body": {"context": [1]}},
        {"body": {"context": {"sex": [1]}}},
        {"body": {"context": {"sex": "M"}, "attributes": [[1]]}},
        {"body": {"context": {"sex": "M"}, "max_pairs_per_attribute": 0}},
    ],
    ("POST", "/v1/explain/local"): [
        {"body": {"index": -1}},
        {"body": {"index": "0"}},
        {"body": {"index": 1.5}},
        {"body": {"index": 10**9}},
        {"body": {"individual": [1]}},
        {"body": {"individual": {"a": [1]}}},
        {"body": {"index": 0, "attributes": [[1]]}},
    ],
    ("POST", "/v1/explain/local_batch"): [
        {"body": {"indices": [-1]}},
        {"body": {"indices": [0, "1"]}},
        {"body": {"indices": {"0": 1}}},
        {"body": {"indices": [0], "attributes": [1]}},
    ],
    ("POST", "/v1/recourse"): [
        {"body": {"index": -1}},
        {"body": {"index": True}},
        {"body": {"index": 0, "alpha": "high"}},
        {"body": {"index": 0, "alpha": [0.5]}},
        {"body": {"index": 0, "mode": 3}},
        {"body": {"index": 0, "actionable": [[1]]}},
    ],
    ("POST", "/v1/recourse/batch"): [
        {"body": {"indices": [-1]}},
        {"body": {"actionable": [[1]]}},
        {"body": {"alpha": [0.5]}},
    ],
    ("POST", "/v1/audit"): [
        {"body": {"protected": [[1]]}},
        {"body": {"protected": "sex"}},
        {"body": {"tolerance": "x"}},
    ],
    ("POST", "/v1/scores"): [
        {"body": {"contrasts": {}}},
        {"body": {"contrasts": [[{"a": 2}]]}},
        {"body": {"contrasts": [[{"a": [2]}, {"a": 0}]]}},
        {"body": {"contrasts": [[{"a": 2}, {"a": 0}]], "context": [1]}},
    ],
    ("POST", "/v1/update"): [
        {"body": {"insert": {"a": 1}}},
        {"body": {"insert": [[1]]}},
        {"body": {"delete": [-1]}},
        {"body": {"delete": ["0"]}},
        {"body": {"bogus": 1}},
    ],
    ("POST", "/v1/monitors"): [
        {"body": {"kind": 5}},
        {"body": {"kind": "score", "params": 5}},
        {"body": {"kind": "score", "params": {"attribute": [1]}}},
        {"body": {"kind": "fairness", "params": {"attribute": "a", "context": [1]}}},
        {"body": {"kind": "recourse", "params": {"actionable": "a"}}},
        {"body": {"kind": "recourse", "params": {"actionable": ["a"], "alpha": [1]}}},
        {"body": {"kind": "score", "threshold": [1],
                  "params": {"attribute": "a", "value": 2, "baseline": 0}}},
        {"body": {"kind": "score", "cusum": 5,
                  "params": {"attribute": "a", "value": 2, "baseline": 0}}},
    ],
    ("POST", "/v1/registry/{tenant}/snapshot"): [{"params": {"tenant": ".."}}],
    ("POST", "/v1/registry/{tenant}/evict"): [{"params": {"tenant": ".."}}],
    ("POST", "/v1/replication/promote"): [{"body": {"catchup_store": 5}}],
    ("POST", "/v1/replication/retarget"): [
        {"body": {}}, {"body": {"leader_url": 5}}, {"body": {"leader_url": ""}},
    ],
    ("DELETE", "/v1/monitors/{monitor_id}"): [],
    ("DELETE", "/v1/registry/{tenant}"): [{"params": {"tenant": ".."}}],
}


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


def make_table(seed: int, n: int = 160) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )


def make_lewis(seed: int = 7) -> Lewis:
    return Lewis(
        tiny_model,
        data=make_table(seed),
        feature_names=["a", "b"],
        attributes=["a", "b", "sex"],
        infer_orderings=False,
    )


def make_stored_lewis(seed: int = 3, n: int = 150) -> Lewis:
    """A tenant needs a serializable model, so fit one on labelled rows."""
    rng = np.random.default_rng(seed)
    rows = {"a": rng.integers(0, 3, n).tolist(), "b": rng.integers(0, 3, n).tolist()}
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


def start(server):
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server.server_address[:2]


def stop(server):
    server.shutdown()
    server.server_close()
    if server.replication is not None:
        server.replication.stop()
    server.monitors.close()


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """``{"default": address, "registry": address}``."""
    session = ExplainerSession(make_lewis(), default_actionable=["a", "b"])
    default = create_server(session, port=0)
    registry = Registry(tmp_path_factory.mktemp("store"))
    registry.add(TENANT, make_stored_lewis(), default_actionable=["a", "b"])
    multi = create_server(registry=registry, port=0)
    yield {"default": start(default), "registry": start(multi)}
    stop(default)
    stop(multi)
    session.close()
    registry.close()


def send(
    address,
    method: str,
    path: str,
    body: bytes = b"",
    length: int | None = None,
    timeout: float = 10.0,
):
    """One raw HTTP/1.1 exchange: ``(status, headers, body bytes)``.

    ``length`` overrides the Content-Length header; when it exceeds the
    body, the client half-closes after sending, as a client that died
    mid-upload would.
    """
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {address[0]}",
        f"Content-Length: {len(body) if length is None else length}",
        "Connection: close",
    ]
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        if length is not None and length > len(body):
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    parsed = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), parsed, payload


def route_path(route, tenant: str | None = None, params: dict | None = None) -> str:
    path = route.pattern
    for name, value in {**PARAMS, **(params or {})}.items():
        path = path.replace("{" + name + "}", value)
    if tenant is not None:
        path = path.replace("/v1/", f"/v1/{tenant}/", 1)
    return path


def assert_client_error(status: int, payload: bytes) -> dict:
    assert 400 <= status < 500, (status, payload)
    body = json.loads(payload)
    assert len(body["request_id"]) == 16, body
    assert body["error"], body
    return body


def route_id(route) -> str:
    return f"{route.method} {route.pattern}"


def targets(route):
    """(server name, tenant) pairs a route is exercised against."""
    yield "default", None
    yield "registry", TENANT if route.session else None


class TestRouteTable:
    def test_every_route_has_wrong_typed_cases(self):
        assert {(r.method, r.pattern) for r in ROUTES} == set(WRONG_TYPED)

    def test_routes_are_unique(self):
        keys = [(r.method, r.segments) for r in ROUTES]
        assert len(keys) == len(set(keys))

    def test_every_first_segment_is_reserved(self):
        # a first segment outside the set would be read as a tenant name
        assert {r.segments[0] for r in ROUTES} <= RESERVED_SEGMENTS
        assert "v1" in RESERVED_SEGMENTS


@pytest.mark.parametrize("route", ROUTES, ids=route_id)
class TestEveryRoute:
    def test_non_object_body_is_400(self, servers, route):
        for name, tenant in targets(route):
            status, _h, payload = send(
                servers[name], route.method, route_path(route, tenant), b"[1, 2]"
            )
            body = assert_client_error(status, payload)
            assert status == 400, (name, body)

    def test_truncated_body_is_400(self, servers, route):
        for name, tenant in targets(route):
            status, _h, payload = send(
                servers[name], route.method, route_path(route, tenant),
                b'{"index": 1', length=64,
            )
            body = assert_client_error(status, payload)
            assert status == 400 and "truncated" in body["error"], (name, body)

    def test_wrong_typed_fields_are_4xx(self, servers, route):
        for case in WRONG_TYPED[(route.method, route.pattern)]:
            for name, tenant in targets(route):
                path = route_path(route, tenant, case.get("params"))
                if case.get("query"):
                    path += "?" + case["query"]
                raw = json.dumps(case["body"]).encode() if "body" in case else b""
                status, _h, payload = send(servers[name], route.method, path, raw)
                assert_client_error(status, payload)


@pytest.mark.parametrize("route", [r for r in ROUTES if r.session], ids=route_id)
def test_unknown_tenant_is_404(servers, route):
    for address in servers.values():
        status, _h, payload = send(
            address, route.method, route_path(route, "ghost"), b"{}"
        )
        assert_client_error(status, payload)
        assert status == 404


def post(address, path: str, body: dict):
    status, _headers, payload = send(
        address, "POST", path, json.dumps(body).encode()
    )
    return status, json.loads(payload)


class TestReportedCases:
    """Single inputs pinned as regression cases."""

    def test_non_object_monitor_body(self, servers):
        status, _h, payload = send(
            servers["default"], "POST", "/v1/monitors", b"[1, 2]"
        )
        body = assert_client_error(status, payload)
        assert "JSON object" in body["error"]

    def test_non_object_cusum(self, servers):
        status, body = post(servers["default"], "/v1/monitors", {
            "kind": "score", "cusum": 5,
            "params": {"attribute": "a", "value": 2, "baseline": 0},
        })
        assert status == 400 and "cusum" in body["error"]

    @pytest.mark.parametrize("path,key", [
        ("/v1/explain/global", "attributes"),
        ("/v1/recourse/batch", "actionable"),
        ("/v1/audit", "protected"),
    ])
    def test_non_string_attribute_names(self, servers, path, key):
        status, body = post(servers["default"], path, {key: [[1]]})
        assert status == 400 and key in body["error"]

    @pytest.mark.parametrize("path,payload", [
        ("/v1/explain/local", {"index": -1}),
        ("/v1/explain/local_batch", {"indices": [0, -1]}),
        ("/v1/recourse", {"index": -1}),
        ("/v1/recourse/batch", {"indices": [-1]}),
    ])
    def test_negative_row_indices(self, servers, path, payload):
        status, body = post(servers["default"], path, payload)
        assert status == 400 and "non-negative" in body["error"]

    @pytest.mark.parametrize("max_pairs", [0, -1])
    def test_max_pairs_below_one(self, servers, max_pairs):
        status, body = post(
            servers["default"], "/v1/explain/global",
            {"max_pairs_per_attribute": max_pairs},
        )
        assert status == 400 and "max_pairs_per_attribute" in body["error"]

    @pytest.mark.parametrize("method,path", [
        ("POST", "/v1/explain/global"), ("DELETE", "/v1/monitors/m1"),
    ])
    def test_negative_content_length_answers_instead_of_hanging(
        self, servers, method, path
    ):
        status, _h, payload = send(
            servers["default"], method, path, length=-1, timeout=5.0
        )
        body = assert_client_error(status, payload)
        assert "Content-Length" in body["error"]

    def test_keep_alive_responses_do_not_stall(self, servers):
        host, port = servers["default"]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        post_body = json.dumps({"max_pairs_per_attribute": 2})
        try:
            conn.request("POST", "/v1/explain/global", post_body)
            conn.getresponse().read()  # warm the result cache
            elapsed = {"/healthz": [], "/v1/stats": [], "/v1/explain/global": []}
            for _ in range(20):
                for path, samples in elapsed.items():
                    started = time.perf_counter()
                    if path.startswith("/v1/explain"):
                        conn.request("POST", path, post_body)
                    else:
                        conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    samples.append(time.perf_counter() - started)
                    assert response.status == 200
        finally:
            conn.close()
        # A delayed-ACK stall costs >= 40 ms per response; without it
        # these answer in about a millisecond over one connection.
        for path, samples in elapsed.items():
            assert statistics.median(samples) < 0.03, (path, samples)


class TestOverload:
    def test_monitor_routes_shed_with_429_while_the_queue_is_full(self):
        session = ExplainerSession(make_lewis(), max_queue=1)
        server = create_server(session, port=0)
        address = start(server)
        finish = hold_lane(session._batcher, waiters=1)  # busy, queue full
        try:
            for method, path in (
                ("GET", "/v1/monitors"), ("DELETE", "/v1/monitors/m1")
            ):
                status, headers, payload = send(address, method, path)
                body = assert_client_error(status, payload)
                assert status == 429, (method, body)
                assert int(headers["Retry-After"]) >= 1
                assert "overloaded" in body["error"]
        finally:
            finish()
            stop(server)
            session.close()
