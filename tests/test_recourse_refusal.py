"""A refused recourse names the table row the caller asked about.

``RecourseSolver.solve_batch`` sees only a cohort table, so by itself it
can name an infeasible row only by its position in that table.  The
facade and the service take indices into the explained table; their
refusals must name those, or every single-row refusal would read
"row 0".
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import Lewis, fit_table_model, load_dataset, train_test_split
from repro.service import ExplainerSession
from repro.service.server import create_server
from repro.utils.exceptions import RecourseInfeasibleError

#: a negative-decision row of the fixture with no recourse at ALPHA
INFEASIBLE = 6
ALPHA = 0.6


@pytest.fixture(scope="module")
def german():
    bundle = load_dataset("german", n_rows=600, seed=0)
    train, test = train_test_split(bundle.table, test_fraction=0.5, seed=0)
    model = fit_table_model(
        "random_forest", train, bundle.feature_names, bundle.label, seed=0
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph,
        positive_outcome=bundle.positive_label,
    )
    return lewis, bundle.actionable


def test_single_recourse_names_the_table_index(german):
    lewis, actionable = german
    with pytest.raises(RecourseInfeasibleError, match=rf"^row {INFEASIBLE}: "):
        lewis.recourse(INFEASIBLE, actionable, alpha=ALPHA)


def test_batch_names_the_table_index(german):
    lewis, actionable = german
    negatives = [int(i) for i in lewis.negative_indices()]
    answers = lewis.recourse_batch(
        negatives, actionable, alpha=ALPHA, on_infeasible="none"
    )
    feasible = [i for i, r in zip(negatives, answers) if r is not None][:3]
    assert feasible
    with pytest.raises(RecourseInfeasibleError, match=rf"^row {INFEASIBLE}: "):
        lewis.recourse_batch(feasible + [INFEASIBLE], actionable, alpha=ALPHA)


def test_http_refusal_names_the_table_index(german):
    lewis, actionable = german
    session = ExplainerSession(lewis, default_actionable=actionable)
    httpd = create_server(session, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/recourse",
            data=json.dumps({"index": INFEASIBLE, "alpha": ALPHA}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=30)
        assert refused.value.code == 409
        body = json.loads(refused.value.read())
        assert body["error"].startswith(
            f"recourse infeasible: row {INFEASIBLE}: "
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        session.close()
