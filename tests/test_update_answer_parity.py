"""Local explanations and recourse after updates agree on every path.

After a run of deltas the local regressions and the recourse logit
model are refitted from count cells the engine maintained through the
deltas.  The same 32-row local batch and the same recourse audit must
then be the same bits from four places:

* the live session that applied the deltas (tensors cached before the
  deltas and updated in place by each one);
* a fresh explainer built over the post-delta rows (tensors counted
  from scratch);
* a session restored from a snapshot taken before the deltas plus a
  replay of the write-ahead log (tensors counted from the restored
  table on first use);
* the JSON text the HTTP server returns for a second restore.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import Lewis, fit_table_model, load_dataset, train_test_split
from repro.service import ExplainerSession
from repro.service.server import create_server
from repro.store import ArtifactStore, checkpoint_session, create_tenant, restore_session

TENANT = "german"
ALPHA = 0.7
N_DELTAS = 4


def text(result) -> str:
    return json.dumps(result, sort_keys=True)


def answers(session, local_rows, audit_rows) -> tuple[str, str]:
    local = session.explain_local_batch(local_rows)
    audit = session.recourse_batch(audit_rows, alpha=ALPHA)
    assert not local["cached"] and not audit["cached"]
    return text(local["result"]), text(audit["result"])


def http_answers(session, local_rows, audit_rows) -> tuple[str, str]:
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]

    def post(route: str, payload: dict) -> str:
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/{route}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return text(json.loads(response.read())["result"])

    try:
        return (
            post("explain/local_batch", {"indices": local_rows}),
            post("recourse/batch", {"indices": audit_rows, "alpha": ALPHA}),
        )
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    bundle = load_dataset("german", n_rows=600, seed=0)
    train, test = train_test_split(bundle.table, test_fraction=0.5, seed=0)
    model = fit_table_model(
        "random_forest", train, bundle.feature_names, bundle.label,
        seed=0, n_estimators=5,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph,
        positive_outcome=bundle.positive_label,
    )
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    live = create_tenant(
        store, TENANT, lewis, default_actionable=bundle.actionable, snapshot=False
    )
    local_rows = list(range(0, 64, 2))
    audit_rows = [int(i) for i in lewis.negative_indices()[:40]]
    # Warm the local and recourse cells so the deltas update them in
    # place.
    answers(live, local_rows, audit_rows)
    checkpoint_session(store, live, TENANT)

    rng = np.random.default_rng(11)
    names = lewis.data.names
    for _ in range(N_DELTAS):
        inserted = [
            {name: train.row(int(i))[name] for name in names}
            for i in rng.choice(len(train), size=6, replace=False)
        ]
        # one row twice: the scatter-add must count both
        inserted.append(dict(inserted[0]))
        deleted = sorted(int(i) for i in rng.choice(len(lewis.data), 4, replace=False))
        live.update({"insert": inserted, "delete": deleted})
    assert live.table_version == N_DELTAS

    post_delta = live.lewis
    fresh = ExplainerSession(
        Lewis(
            model,
            data=post_delta.data,
            feature_names=post_delta.feature_names,
            positive_outcome=bundle.positive_label,
            graph=bundle.graph,
            attributes=post_delta.attributes,
            infer_orderings=False,
            model_domains=post_delta._model_domains,
        ),
        default_actionable=bundle.actionable,
    )
    restored = restore_session(store, TENANT)
    served = restore_session(store, TENANT)
    assert restored.table_version == served.table_version == N_DELTAS
    out = {
        "live": answers(live, local_rows, audit_rows),
        "fresh": answers(fresh, local_rows, audit_rows),
        "restored": answers(restored, local_rows, audit_rows),
        "http": http_answers(served, local_rows, audit_rows),
    }
    for session in (live, fresh, restored, served):
        session.close()
    return out


@pytest.mark.parametrize("path", ["fresh", "restored", "http"])
def test_local_batch_matches_live(paths, path):
    assert paths[path][0] == paths["live"][0]


@pytest.mark.parametrize("path", ["fresh", "restored", "http"])
def test_recourse_audit_matches_live(paths, path):
    assert paths[path][1] == paths["live"][1]


def test_audit_solves_some_rows(paths):
    audit = json.loads(paths["live"][1])
    assert audit["feasible"] > 0
    assert audit["n"] == 40
