"""The HTTP envelope around a session's encoded answer.

A session POST's answer leaves ``ExplainerSession.handle(..., encoded=True)``
as JSON bytes, and the server writes its envelope around them.  These
tests hold a miss and a hit on every cacheable route to the embedded
``handle`` answer and to the full envelope, check that a degraded audit
keeps its label, and guard that each session POST enters
``ExplainerSession.handle`` exactly once, inside the request's trace:
per-layer profiles subtract that call's time from the round trip.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs import tracing
from repro.service import ExplainerSession
from repro.service import server as server_module
from repro.service.server import create_server

ENVELOPE = {
    "kind", "cached", "table_version", "state_token", "request_id",
    "elapsed_ms", "queue_ms", "compute_ms", "result",
}


def post(url: str, payload: dict, headers: dict | None = None) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def route_cases(session: ExplainerSession) -> list[tuple[str, dict, object]]:
    """``(path, body, request builder)`` for every cacheable route."""
    negatives = [int(i) for i in session.lewis.negative_indices()[:6]]
    audit = session.lewis.recourse_audit(
        session.default_actionable, alpha=0.6, indices=negatives
    )
    feasible = next(i for i, r in zip(negatives, audit["recourses"]) if r)
    return [
        ("explain/global", {"max_pairs_per_attribute": 4}, server_module._global_request),
        ("explain/context", {"context": {"sex": "Male"}}, server_module._context_request),
        ("explain/local", {"index": 0}, server_module._local_request),
        ("explain/local_batch", {"indices": [0, 1, 2, 3]},
         server_module._local_batch_request),
        ("recourse", {"index": feasible, "alpha": 0.6}, server_module._recourse_request),
        ("recourse/batch", {"indices": negatives, "alpha": 0.6},
         server_module._recourse_batch_request),
        ("audit", {}, server_module._audit_request),
        ("scores", {"contrasts": [[{"savings": ">1000 DM"}, {"savings": "<100 DM"}]],
                    "context": {"sex": "Female"}}, server_module._scores_request),
    ]


@pytest.fixture()
def served(german_bundle, german_lewis):
    session = ExplainerSession(german_lewis, default_actionable=german_bundle.actionable)
    httpd = create_server(session, port=0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    try:
        yield session, f"http://{host}:{port}/v1"
    finally:
        httpd.shutdown()
        httpd.server_close()
        session.close()


def test_miss_and_hit_carry_the_embedded_answer_and_the_envelope(
    served, german_bundle, german_lewis
):
    session, base = served
    cases = route_cases(session)
    assert {build(body).kind for _path, body, build in cases} == {
        "explain_global", "explain_context", "explain_local", "explain_local_batch",
        "recourse", "recourse_batch", "audit", "scores",
    }
    # the reference answers come from a second session over the same
    # explainer, through the embedded (decoded) handle
    with ExplainerSession(
        german_lewis, default_actionable=german_bundle.actionable
    ) as embedded:
        for path, body, build in cases:
            miss = post(f"{base}/{path}", body)
            hit = post(f"{base}/{path}", body)
            expected = embedded.handle(build(body))["result"]
            for response, cached in ((miss, False), (hit, True)):
                assert set(response) == ENVELOPE, path
                assert response["cached"] is cached, path
                assert response["kind"] == build(body).kind
                assert response["result"] == expected, path
                assert response["state_token"] == session.state_token
                assert response["table_version"] == session.table_version
                assert response["queue_ms"] >= 0 and response["compute_ms"] >= 0
                assert response["elapsed_ms"] > 0
            assert miss["request_id"] != hit["request_id"]


def test_degraded_audit_keeps_its_label(served, monkeypatch):
    # a 30 s budget under a forced 600 s anytime floor degrades the
    # exact cohort solve to the labelled anytime one
    session, base = served
    monkeypatch.setenv("REPRO_ANYTIME_MS", "600000")
    body = {"indices": [int(i) for i in session.lewis.negative_indices()[:6]],
            "alpha": 0.6}
    for _attempt in range(2):  # degraded answers are never cached
        response = post(
            f"{base}/recourse/batch", body, headers={"X-Repro-Deadline-Ms": "30000"}
        )
        assert set(response) == ENVELOPE | {"degraded", "degraded_reason"}
        assert response["cached"] is False
        assert response["degraded"] is True
        assert response["degraded_reason"] == "deadline"
        assert response["result"]["degraded"] is True
        assert response["result"]["mode"] == "anytime"


def test_each_session_post_enters_handle_once_inside_its_trace(served, monkeypatch):
    """The per-layer profile wraps ``ExplainerSession.handle`` by name and
    keys its span by the request id; a POST that skipped it, or entered
    it twice, would silently zero or double the session layer."""
    session, base = served
    entries: list[str | None] = []
    handle = ExplainerSession.handle

    def counted(self, *args, **kwargs):
        entries.append(tracing.current_trace_id())
        return handle(self, *args, **kwargs)

    monkeypatch.setattr(ExplainerSession, "handle", counted)
    for path, body, _build in route_cases(session):
        for _repeat in range(2):  # a miss, then a hit
            before = len(entries)
            response = post(f"{base}/{path}", body)
            assert entries[before:] == [response["request_id"]], path
