"""HTTP front-end smoke tests: one request per endpoint, schema checks."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import ExplainerSession
from repro.service.server import create_server


def tiny_model(features: Table) -> np.ndarray:
    return (features.codes("a") + features.codes("b")) >= 2


def make_lewis() -> Lewis:
    rng = np.random.default_rng(7)
    n = 200
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


def post_error(url: str, payload) -> tuple[int, dict]:
    try:
        post(url, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


class TestEndpoints:
    def test_health(self, base_url):
        status, body = get(f"{base_url}/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body) >= {"fingerprint", "table_version", "n_rows"}

    def test_explain_global(self, base_url):
        status, body = post(f"{base_url}/v1/explain/global", {})
        assert status == 200
        result = body["result"]
        assert set(result) >= {"context", "attributes", "ranking", "statements"}
        assert {"a", "b", "sex"} == set(result["ranking"])
        for row in result["attributes"]:
            assert set(row) >= {"attribute", "necessity", "sufficiency"}

    def test_explain_global_cache_hit_on_repeat(self, base_url):
        post(f"{base_url}/v1/explain/global", {"max_pairs_per_attribute": 3})
        status, body = post(
            f"{base_url}/v1/explain/global", {"max_pairs_per_attribute": 3}
        )
        assert status == 200 and body["cached"] is True

    def test_explain_context(self, base_url):
        status, body = post(
            f"{base_url}/v1/explain/context", {"context": {"sex": "M"}}
        )
        assert status == 200
        assert body["result"]["context"] == {"sex": "M"}

    def test_explain_local(self, base_url):
        status, body = post(f"{base_url}/v1/explain/local", {"index": 0})
        assert status == 200
        result = body["result"]
        assert set(result) >= {"individual", "outcome_positive", "contributions"}
        assert all(
            set(c) >= {"attribute", "value", "positive", "negative", "net"}
            for c in result["contributions"]
        )

    def test_recourse(self, base_url, server):
        session = server.session
        index = int(session.lewis.negative_indices()[0])
        status, body = post(
            f"{base_url}/v1/recourse", {"index": index, "alpha": 0.5}
        )
        assert status == 200
        assert set(body["result"]) >= {"actions", "total_cost", "statements"}

    def test_audit(self, base_url):
        status, body = post(f"{base_url}/v1/audit", {"protected": ["sex"]})
        assert status == 200
        verdicts = body["result"]["verdicts"]
        assert verdicts[0]["attribute"] == "sex"
        assert isinstance(verdicts[0]["is_counterfactually_fair"], bool)

    def test_scores(self, base_url):
        status, body = post(
            f"{base_url}/v1/scores",
            {"contrasts": [[{"a": 2}, {"a": 0}]], "context": {}},
        )
        assert status == 200
        triple = body["result"]["scores"][0]
        assert set(triple) == {"necessity", "sufficiency", "necessity_sufficiency"}

    def test_update_then_version_moves(self, base_url, server):
        session = server.session
        before = session.table_version
        rows = [session.lewis.data.row(i) for i in range(2)]
        status, body = post(
            f"{base_url}/v1/update", {"insert": rows, "delete": [0]}
        )
        assert status == 200
        assert body["result"]["version"] == before + 1
        assert body["table_version"] == before + 1

    def test_stats(self, base_url):
        status, body = get(f"{base_url}/v1/stats")
        assert status == 200
        assert set(body) >= {"caches", "scheduler", "solver", "fingerprint"}


class TestErrorMapping:
    def test_unknown_endpoint_404(self, base_url):
        code, body = post_error(f"{base_url}/v1/nope", {})
        assert code == 404 and "error" in body

    def test_unknown_attribute_400(self, base_url):
        code, body = post_error(
            f"{base_url}/v1/explain/context", {"context": {"nope": 1}}
        )
        assert code == 400 and "error" in body

    def test_unknown_label_400(self, base_url):
        code, body = post_error(
            f"{base_url}/v1/update", {"insert": [{"a": 0, "b": 0, "sex": "X"}]}
        )
        assert code == 400 and "not in domain" in body["error"]

    def test_missing_context_400(self, base_url):
        code, _body = post_error(f"{base_url}/v1/explain/context", {})
        assert code == 400

    def test_local_selector_validation_400(self, base_url):
        code, _body = post_error(
            f"{base_url}/v1/explain/local", {"index": 1, "individual": {"a": 0}}
        )
        assert code == 400

    def test_malformed_json_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/explain/global", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_index_type_400(self, base_url):
        code, body = post_error(
            f"{base_url}/v1/explain/local", {"index": "seven"}
        )
        assert code == 400 and "integer" in body["error"]

    def test_concurrent_requests_all_answer(self, base_url):
        results = [None] * 6

        def worker(i):
            results[i] = post(
                f"{base_url}/v1/scores",
                {"contrasts": [[{"a": 2}, {"a": i % 2}]]},
            )[0]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == [200] * 6


class TestProvenance:
    def test_envelope_names_the_state_that_produced_the_answer(self, monkeypatch):
        """An update landing after the answer but before the envelope must
        not relabel the answer with the later table state (hit or miss)."""
        session = ExplainerSession(make_lewis(), default_actionable=["a", "b"])
        httpd = create_server(session, port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address[:2]
        url = f"http://{host}:{port}/v1/explain/global"
        answer = session.handle

        def answer_then_update(request, **kwargs):
            response = answer(request, **kwargs)
            session.update({"insert": [{"a": 2, "b": 2, "sex": "F"}]})
            return response

        try:
            post(url, {})  # cached at the first state
            monkeypatch.setattr(session, "handle", answer_then_update)
            for cached in (True, False):
                before = (session.state_token, session.table_version)
                _status, body = post(url, {})
                assert body["cached"] is cached
                assert (body["state_token"], body["table_version"]) == before
                assert session.state_token != before[0]
        finally:
            httpd.shutdown()
            httpd.server_close()
            session.close()
