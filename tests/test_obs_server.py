"""Observability at the HTTP edge: /metrics, /v1/traces, request ids."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.obs import tracing
from repro.service.server import create_server
from repro.service.session import ExplainerSession
from repro.service.updates import TableDelta
from repro.store.wal import DeltaLog


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


@pytest.fixture(scope="module")
def server():
    rng = np.random.default_rng(11)
    n = 200
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )
    lewis = Lewis(
        tiny_model, data=table, feature_names=["a", "b", "sex"],
        infer_orderings=False,
    )
    session = ExplainerSession(lewis, default_actionable=["a", "b"])
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    session.close()


def get(base: str, path: str):
    with urllib.request.urlopen(base + path) as resp:
        return resp.status, resp.headers, resp.read()


def post(base: str, path: str, payload: dict):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestMetricsEndpoint:
    def test_prometheus_families_cover_every_subsystem(self, server):
        post(server, "/v1/explain/global", {})
        status, headers, body = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        families = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        for prefix in (
            "repro_cache", "repro_batcher", "repro_engine", "repro_solver",
            "repro_wal", "repro_monitor", "repro_http", "repro_registry",
        ):
            assert any(f.startswith(prefix) for f in families), prefix

    def test_solver_families_are_the_serial_solver_counters(self, server):
        post(server, "/v1/recourse/batch", {"alpha": 0.7})
        _status, _headers, body = get(server, "/metrics")
        families = {
            line.split()[2] for line in body.decode().splitlines()
            if line.startswith("# TYPE")
        }
        solver = {f for f in families if f.startswith("repro_solver_")}
        assert {
            "repro_solver_signature_solves_total",
            "repro_solver_search_nodes_total",
            "repro_solver_certified_total",
        } <= solver
        for removed in ("donor", "pool", "parallel", "chunk"):
            assert not any(removed in family for family in solver), removed

    def test_v1_metrics_alias(self, server):
        status, headers, _body = get(server, "/v1/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]

    def test_http_counter_moves(self, server):
        def count():
            _s, _h, body = get(server, "/metrics")
            total = 0.0
            for line in body.decode().splitlines():
                if line.startswith("repro_http_requests_total{"):
                    total += float(line.rsplit(" ", 1)[1])
            return total

        before = count()
        post(server, "/v1/explain/global", {})
        assert count() > before

    def test_http_series_are_labelled_by_route_pattern(self, server):
        post(server, "/v1/explain/global", {})
        post(server, "/v1/ghost/explain/global", {})  # tenant-scoped: 404 here
        post(server, "/v1/nope/nothing", {})  # matches no route
        _s, _h, body = get(server, "/metrics")
        series = {
            line.rsplit(" ", 1)[0]
            for line in body.decode().splitlines()
            if line.startswith("repro_http_")
        }
        for expected in (
            'repro_http_requests_total{method="POST",'
            'route="/v1/explain/global",status="200"}',
            'repro_http_requests_total{method="POST",'
            'route="/v1/explain/global",status="404"}',
            'repro_http_requests_total{method="POST",route="unmatched",status="404"}',
            'repro_http_request_seconds_count{method="POST",'
            'route="/v1/explain/global"}',
        ):
            assert expected in series, expected
        # tenant names and unmatched paths never become label values
        assert not [s for s in series if "ghost" in s or "nope" in s]


class TestRequestIds:
    def test_success_carries_request_id_and_timing_breakdown(self, server):
        status, body = post(server, "/v1/explain/global", {})
        assert status == 200
        assert len(body["request_id"]) == 16
        assert body["elapsed_ms"] >= body["compute_ms"] >= 0.0
        assert body["queue_ms"] >= 0.0

    def test_cache_hit_reports_zero_dispatch_time(self, server):
        post(server, "/v1/explain/global", {"max_pairs_per_attribute": 4})
        status, body = post(
            server, "/v1/explain/global", {"max_pairs_per_attribute": 4}
        )
        assert status == 200 and body["cached"]
        assert body["queue_ms"] == 0.0 and body["compute_ms"] == 0.0

    def test_client_error_carries_request_id(self, server):
        status, body = post(server, "/v1/explain/local", {})
        assert status == 400
        assert "error" in body and len(body["request_id"]) == 16

    def test_not_found_carries_request_id(self, server):
        status, body = post(server, "/v1/nope/nothing", {})
        assert status == 404
        assert len(body["request_id"]) == 16

    def test_two_requests_get_distinct_ids(self, server):
        _s1, a = post(server, "/v1/explain/global", {})
        _s2, b = post(server, "/v1/explain/global", {})
        assert a["request_id"] != b["request_id"]


class TestTracesEndpoint:
    def test_response_request_id_resolves_to_a_finished_trace(self, server):
        _status, body = post(server, "/v1/explain/local", {"index": 0})
        rid = body["request_id"]
        status, _headers, raw = get(server, f"/v1/traces?id={rid}")
        assert status == 200
        record = json.loads(raw)["traces"][0]
        assert record["trace_id"] == rid
        assert record["name"] == "POST /v1/explain/local"
        assert record["status"] == "ok"

    def test_recourse_batch_shows_recourse_solve_span(self, server):
        tracing.get_tracer().clear()
        status, body = post(server, "/v1/recourse/batch", {"alpha": 0.8})
        assert status == 200
        _s, _h, raw = get(server, f"/v1/traces?id={body['request_id']}")
        record = json.loads(raw)["traces"][0]
        names = [s["name"] for s in record["spans"]]
        assert "queue_wait" in names
        assert "compute" in names
        assert names.count("recourse_solve") == 1
        solve = next(s for s in record["spans"] if s["name"] == "recourse_solve")
        assert solve["tags"]["signatures"] >= 1

    def test_lane_spans_nest_in_the_request_trace(self, server):
        status, body = post(server, "/v1/recourse/batch", {"alpha": 0.66})
        assert status == 200 and body["cached"] is False
        _s, _h, raw = get(server, f"/v1/traces?id={body['request_id']}")
        spans = {s["name"]: s for s in json.loads(raw)["traces"][0]["spans"]}
        root = spans["POST /v1/recourse/batch"]
        assert spans["queue_wait"]["parent_id"] == root["span_id"]
        assert spans["compute"]["parent_id"] == root["span_id"]
        assert spans["compute"]["tags"] == {"kind": "recourse_batch"}
        # the solve ran on the request's own thread, inside its compute
        assert spans["recourse_solve"]["parent_id"] == spans["compute"]["span_id"]
        assert body["compute_ms"] == spans["compute"]["duration_ms"]

    def test_update_trace_shows_the_black_box_share(self, server):
        inserted = [
            {"a": 2, "b": 1, "sex": "F"},
            {"a": 0, "b": 2, "sex": "M"},
            {"a": 1, "b": 1, "sex": "M"},
        ]
        status, body = post(
            server, "/v1/update", {"insert": inserted, "delete": [0, 1, 2]}
        )
        assert status == 200
        _s, _h, raw = get(server, f"/v1/traces?id={body['request_id']}")
        record = json.loads(raw)["traces"][0]
        spans = [s for s in record["spans"] if s["name"] == "blackbox_predict"]
        assert len(spans) == 1
        assert spans[0]["tags"]["rows"] == len(inserted)
        assert spans[0]["duration_ms"] <= record["duration_ms"]

    def test_query_filters_by_min_ms_and_limit(self, server):
        for _ in range(3):
            post(server, "/v1/explain/global", {})
        _s, _h, raw = get(server, "/v1/traces?min_ms=0&limit=2")
        payload = json.loads(raw)
        assert len(payload["traces"]) <= 2
        _s, _h, raw = get(server, "/v1/traces?min_ms=1e12")
        assert json.loads(raw)["traces"] == []

    def test_unknown_trace_is_404_with_request_id(self, server):
        try:
            get(server, "/v1/traces?id=ffffffffffffffff")
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            assert exc.code == 404
            assert "request_id" in body


class TestStatsSchema:
    def test_caches_replace_the_flat_cache_keys(self, server):
        _s, _h, raw = get(server, "/v1/stats")
        stats = json.loads(raw)
        for key in (
            "tenant", "fingerprint", "table_version", "n_rows",
            "requests_served", "scheduler", "caches", "solver",
        ):
            assert key in stats, key
        # every cache reports once, as CacheStats, under "caches"
        for flat in ("cache", "engine", "local_models"):
            assert flat not in stats, flat
        assert set(stats["caches"]) == {"result", "tensor", "local_model"}
        for shape in stats["caches"].values():
            assert {"name", "entries", "hits", "misses"} <= set(shape)
        assert "metrics" in stats and "counters" in stats["metrics"]
        assert "tracing" in stats and "finished" in stats["tracing"]


class TestWalRequestIds:
    def test_update_stamps_request_id_into_wal(self, tmp_path, server):
        # request ids reach the WAL through the durable session; exercise
        # the log directly the way DurableSession.update does.
        log = DeltaLog(tmp_path / "t.jsonl")
        delta = {"insert": [{"a": 1, "b": 0, "sex": "F"}], "delete": []}
        with tracing.trace("update") as tid:
            seq = log.append(
                TableDelta.from_json(delta), request_id=tracing.current_trace_id()
            )
        log.close()
        records = DeltaLog(tmp_path / "t.jsonl").replay_annotated()
        assert records[0][0] == seq
        assert records[0][2] == tid

    def test_request_id_survives_compaction(self, tmp_path):
        log = DeltaLog(tmp_path / "t.jsonl")
        log.append(TableDelta(insert=({"a": 1},)), request_id="aaaa")
        log.append(TableDelta(insert=({"a": 2},)), request_id="bbbb")
        log.append(TableDelta(insert=({"a": 0},)))  # anonymous update
        log.truncate_through(1)
        log.close()
        reopened = DeltaLog(tmp_path / "t.jsonl")
        annotated = reopened.replay_annotated()
        assert [(seq, rid) for seq, _d, rid in annotated] == [
            (2, "bbbb"), (3, None),
        ]

    def test_old_format_records_still_verify(self, tmp_path):
        # a log written before request ids existed (no "request_id" key)
        # must replay cleanly: the CRC digest only covers the field when
        # it is present.
        log = DeltaLog(tmp_path / "t.jsonl")
        log.append(TableDelta(insert=({"a": 1},)))
        log.close()
        raw = (tmp_path / "t.jsonl").read_text()
        assert "request_id" not in raw
        reopened = DeltaLog(tmp_path / "t.jsonl")
        assert reopened.last_seq == 1
        assert reopened.replay_annotated()[0][2] is None
