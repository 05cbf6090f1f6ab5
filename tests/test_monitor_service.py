"""Monitor endpoints over HTTP: register, watch long-poll, recovery, CLI."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import fit_table_model, load_dataset, train_test_split
from repro.cli import main
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.monitor.journal import MonitorJournal
from repro.service import ExplainerSession
from repro.service.server import create_server
from repro.store import ArtifactStore, Registry, create_tenant

from oracles import scan_monotonicity_violation

NAMES = ("a", "b", "c")


def make_lewis(n: int = 300) -> Lewis:
    rng = np.random.default_rng(11)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 4, n).tolist(),
        "c": rng.integers(0, 2, n).tolist(),
    }
    rows["y"] = [
        int(a + b + c >= 3) for a, b, c in zip(rows["a"], rows["b"], rows["c"])
    ]
    table = Table.from_dict(
        rows,
        domains={"a": [0, 1, 2], "b": [0, 1, 2, 3], "c": [0, 1], "y": [0, 1]},
    )
    model = fit_table_model("logistic", table, list(NAMES), "y", seed=0)
    return Lewis(
        model,
        data=table.select(list(NAMES)),
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    create_tenant(store, "acme", make_lewis()).close()
    registry = Registry(store)
    server = create_server(registry=registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, registry
    server.shutdown()
    server.server_close()
    server.monitors.close()
    registry.close(checkpoint=False)


@pytest.fixture(scope="module")
def base_url(served):
    host, port = served[0].server_address[:2]
    return f"http://{host}:{port}"


def http(url: str, method: str = "GET", payload: dict | None = None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_error(url: str, method: str = "GET", payload: dict | None = None):
    try:
        http(url, method, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


class TestMonitorEndpoints:
    def test_full_lifecycle_with_watch(self, base_url):
        tenant = f"{base_url}/v1/acme"
        _, created = http(
            f"{tenant}/monitors",
            "POST",
            {
                "kind": "score",
                "params": {"attribute": "a", "value": 2, "baseline": 0},
                "threshold": 0.05,
            },
        )
        monitor_id = created["id"]
        assert set(created["baseline"]) >= {"necessity", "sufficiency"}

        _, listing = http(f"{tenant}/monitors")
        assert monitor_id in [m["id"] for m in listing["monitors"]]

        # long-poll from a thread, then inject a shift through /update
        result: dict = {}
        watcher = threading.Thread(
            target=lambda: result.update(
                http(f"{tenant}/watch?cursor=0&timeout=15")[1]
            )
        )
        watcher.start()
        time.sleep(0.1)
        _, update = http(
            f"{tenant}/update",
            "POST",
            {"insert": [{"a": 2, "b": 0, "c": 0}] * 250},
        )
        watcher.join(timeout=20)
        assert not watcher.is_alive()
        assert result["alerts"], result
        alert = result["alerts"][0]
        assert alert["monitor_id"] == monitor_id
        assert alert["wal_seq"] == update["result"]["wal_seq"]
        assert result["cursor"] == alert["seq"]

        _, state = http(f"{tenant}/monitors/{monitor_id}")
        assert state["alerts"] >= 1
        assert state["batches_seen"] >= 1

        # caught-up cursor times out empty
        _, idle = http(f"{tenant}/watch?cursor={result['cursor']}&timeout=0.2")
        assert idle["timed_out"] and idle["alerts"] == []

        # stats carries the monitor block for attached tenants
        _, stats = http(f"{tenant}/stats")
        assert stats["monitors"]["monitors"] >= 1

        # evict the session: monitors must come back from the journal
        http(f"{base_url}/v1/registry/acme/evict", "POST", {})
        _, after = http(f"{tenant}/monitors")
        assert monitor_id in [m["id"] for m in after["monitors"]]
        assert after["alerts_total"] >= 1

        _, removed = http(f"{tenant}/monitors/{monitor_id}", "DELETE")
        assert removed["removed"]
        _, final = http(f"{tenant}/monitors")
        assert monitor_id not in [m["id"] for m in final["monitors"]]

    def test_acknowledged_update_has_refreshed_its_monitors(self, base_url, served):
        """The refresh runs inside the update's request: once the update
        answers, the monitor's cursor is its ``wal_seq`` (no waiting) and
        the alert it raised is journaled under the update's request id."""
        tenant = f"{base_url}/v1/acme"
        _, created = http(
            f"{tenant}/monitors",
            "POST",
            {
                "kind": "score",
                "params": {"attribute": "b", "value": 3, "baseline": 0},
                "threshold": 0.001,
            },
        )
        request_ids = set()
        for rows in ([{"a": 0, "b": 3, "c": 1}] * 3, [{"a": 2, "b": 0, "c": 1}] * 250):
            _, update = http(f"{tenant}/update", "POST", {"insert": rows})
            request_ids.add(update["request_id"])
            _, state = http(f"{tenant}/monitors/{created['id']}")
            assert state["cursor"] == update["result"]["wal_seq"]
        assert state["alerts"] >= 1
        store = served[1].store
        alerts = [
            record["data"]
            for record in MonitorJournal.read(store.monitor_journal_path("acme"))
            if record["kind"] == "alert"
            and record["data"]["alert"]["monitor_id"] == created["id"]
        ]
        assert alerts and all(a["request_id"] in request_ids for a in alerts)
        http(f"{tenant}/monitors/{created['id']}", "DELETE")

    def test_error_statuses(self, base_url):
        tenant = f"{base_url}/v1/acme"
        assert http_error(f"{tenant}/monitors/m999")[0] == 404
        assert http_error(f"{tenant}/monitors", "POST", {"kind": "nope"})[0] == 400
        assert http_error(f"{tenant}/watch?timeout=bogus")[0] == 400
        assert http_error(f"{base_url}/v1/ghost/monitors")[0] == 404

    def test_fairness_context_is_refused(self, base_url):
        """A fairness monitor scores the whole population; a context is a 400."""
        status, body = http_error(
            f"{base_url}/v1/acme/monitors",
            "POST",
            {"kind": "fairness", "params": {"attribute": "b", "context": {"a": 1}}},
        )
        assert status == 400
        assert "'context'" in body["error"]

    def test_monotonicity_context_pinning_its_attribute_is_refused(self, base_url):
        status, body = http_error(
            f"{base_url}/v1/acme/monitors",
            "POST",
            {"kind": "monotonicity", "params": {"attribute": "a", "context": {"a": 1}}},
        )
        assert status == 400
        assert "pins the monitored attribute 'a'" in body["error"]

    def test_cli_against_live_server(self, base_url, capsys):
        args = ["--url", base_url, "--tenant", "acme"]
        assert main(
            ["monitor", "add", *args, "--kind", "fairness",
             "--attribute", "c", "--threshold", "0.1"]
        ) == 0
        added = capsys.readouterr().out
        monitor_id = added.split()[1]  # "registered <id> (...)"

        assert main(["monitor", "ls", *args]) == 0
        assert monitor_id in capsys.readouterr().out

        assert main(["monitor", "watch", *args, "--timeout", "0.2"]) == 0

        assert main(["monitor", "rm", *args, monitor_id]) == 0
        assert main(["monitor", "rm", *args, monitor_id]) == 1  # already gone


@pytest.fixture(scope="module")
def german_served():
    bundle = load_dataset("german", n_rows=1000, seed=0)
    train, test = train_test_split(bundle.table, seed=0)
    model = fit_table_model(
        "random_forest", train, bundle.feature_names, bundle.label,
        seed=0, n_estimators=3,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph, positive_outcome=bundle.positive_label
    )
    session = ExplainerSession(lewis)
    server = create_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", lewis
    server.shutdown()
    server.server_close()
    session.close()


def test_wide_monotonicity_context_is_counted_from_the_rows(german_served):
    """A 12-attribute context on german: a joint of 13,271,040 cells.

    The joint is over the engine's dense-tensor budget, so the counts
    come from the matching rows; the baseline equals the row-scan oracle.
    """
    url, lewis = german_served
    row = lewis.data.row(0)
    names = [n for n in lewis.data.names if n not in ("sex", "debtors")]
    assert len(names) == 12
    context = {n: row[n] for n in names}
    status, created = http(
        f"{url}/v1/monitors",
        "POST",
        {"kind": "monotonicity", "params": {"attribute": "sex", "context": context}},
    )
    assert status == 200
    codes = {n: lewis.data.column(n).code_of(v) for n, v in context.items()}
    expected = scan_monotonicity_violation(lewis.data, lewis.positive, "sex", codes)
    assert created["baseline"]["worst_step_down"] == expected
