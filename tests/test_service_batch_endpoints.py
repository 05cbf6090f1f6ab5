"""HTTP tests for the cohort batch endpoints.

``POST /v1/explain/local_batch`` and ``POST /v1/recourse/batch`` route
through the micro-batcher like every other request kind, cache under
tenant-scoped keys, and validate their cohort selectors.
"""

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


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(11)
    n = 160
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )
    lewis = Lewis(
        tiny_model,
        data=table,
        feature_names=["a", "b"],
        attributes=["a", "b", "sex"],
        infer_orderings=False,
    )
    session = ExplainerSession(lewis, default_actionable=["a", "b"])
    yield session
    session.close()


@pytest.fixture(scope="module")
def base_url(session):
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()


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


class TestLocalBatchEndpoint:
    def test_batch_matches_single_row_endpoint(self, base_url):
        indices = [0, 3, 5]
        status, batch = post(
            f"{base_url}/v1/explain/local_batch", {"indices": indices}
        )
        assert status == 200
        result = batch["result"]
        assert result["indices"] == indices
        assert len(result["explanations"]) == len(indices)
        for index, explanation in zip(indices, result["explanations"]):
            _status, single = post(
                f"{base_url}/v1/explain/local", {"index": index}
            )
            expected = single["result"]
            assert explanation["individual"] == expected["individual"]
            assert explanation["outcome_positive"] == expected["outcome_positive"]
            for got, want in zip(
                explanation["contributions"], expected["contributions"]
            ):
                assert got["attribute"] == want["attribute"]
                assert got["value"] == want["value"]
                assert got["positive"] == pytest.approx(
                    want["positive"], abs=1e-12
                )
                assert got["negative"] == pytest.approx(
                    want["negative"], abs=1e-12
                )
                assert got["negative_foil"] == want["negative_foil"]
                assert got["positive_foil"] == want["positive_foil"]

    def test_batch_is_cached_on_repeat(self, base_url):
        payload = {"indices": [1, 2]}
        post(f"{base_url}/v1/explain/local_batch", payload)
        status, second = post(f"{base_url}/v1/explain/local_batch", payload)
        assert status == 200
        assert second["cached"] is True

    def test_attributes_subset(self, base_url):
        status, body = post(
            f"{base_url}/v1/explain/local_batch",
            {"indices": [0], "attributes": ["a"]},
        )
        assert status == 200
        contributions = body["result"]["explanations"][0]["contributions"]
        assert [c["attribute"] for c in contributions] == ["a"]

    def test_missing_indices_400(self, base_url):
        code, body = post_error(f"{base_url}/v1/explain/local_batch", {})
        assert code == 400
        assert "indices" in body["error"]

    def test_empty_indices_400(self, base_url):
        code, _body = post_error(
            f"{base_url}/v1/explain/local_batch", {"indices": []}
        )
        assert code == 400

    def test_non_integer_indices_400(self, base_url):
        code, _body = post_error(
            f"{base_url}/v1/explain/local_batch", {"indices": ["x"]}
        )
        assert code == 400


class TestRecourseBatchEndpoint:
    def test_default_cohort_is_negative_rows(self, base_url, session):
        status, body = post(f"{base_url}/v1/recourse/batch", {"alpha": 0.6})
        assert status == 200
        result = body["result"]
        negatives = len(session.lewis.negative_indices())
        assert result["n"] == negatives
        assert result["feasible"] + result["infeasible"] == result["n"]
        assert len(result["recourses"]) == result["n"]

    def test_explicit_indices_and_schema(self, base_url):
        status, body = post(
            f"{base_url}/v1/recourse/batch",
            {"indices": [0, 1], "alpha": 0.6, "actionable": ["a", "b"]},
        )
        assert status == 200
        result = body["result"]
        assert result["indices"] == [0, 1]
        for entry in result["recourses"]:
            if entry is not None:
                assert {"actions", "total_cost", "is_empty"} <= set(entry)

    def test_batch_is_cached_on_repeat(self, base_url):
        payload = {"indices": [0, 1], "alpha": 0.6}
        post(f"{base_url}/v1/recourse/batch", payload)
        status, second = post(f"{base_url}/v1/recourse/batch", payload)
        assert status == 200
        assert second["cached"] is True

    def test_legacy_workers_key_is_ignored(self, base_url):
        """An old client's ``workers`` key changes neither answer nor cache key."""
        payload = {"indices": [2, 3, 4], "alpha": 0.7}
        status, plain = post(f"{base_url}/v1/recourse/batch", payload)
        assert status == 200
        status, legacy = post(
            f"{base_url}/v1/recourse/batch", {**payload, "workers": 2}
        )
        assert status == 200
        assert legacy["cached"] is True
        assert legacy["result"] == plain["result"]

    def test_bad_alpha_400(self, base_url):
        code, _body = post_error(
            f"{base_url}/v1/recourse/batch", {"indices": [0], "alpha": "high"}
        )
        assert code == 400

    def test_empty_indices_400(self, base_url):
        code, _body = post_error(
            f"{base_url}/v1/recourse/batch", {"indices": []}
        )
        assert code == 400


class TestSessionStatsGainLocalModels:
    def test_stats_expose_local_model_cache(self, session):
        stats = session.stats()
        assert {"entries", "hits", "misses", "evictions"} <= set(
            stats["caches"]["local_model"]
        )
