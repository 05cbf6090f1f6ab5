"""A serving process loads neither scipy nor networkx.

The server, the CLI and a restore answer from count tensors over the
encoded table with numpy alone. scipy is needed only by PC discovery
and synthetic SCM sampling, and networkx only by the test oracles, so
importing either would add a second or more to every boot, restart and
CLI call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro import Lewis, train_test_split
from repro.store import Registry

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

RESTORE_AND_ANSWER = """
import json, sys

import repro.cli
import repro.service.server
from repro.store import Registry

with Registry(sys.argv[1]) as registry:
    answer = registry.get("german").explain_global(max_pairs_per_attribute=2)
heavy = sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx"))
print(json.dumps({"heavy": heavy, "result": answer["result"]}))
"""


def test_restore_and_explain_load_neither_scipy_nor_networkx(
    tmp_path, german_bundle, german_model
):
    _train, test = train_test_split(german_bundle.table, seed=0)
    lewis = Lewis(
        german_model,
        data=test,
        graph=german_bundle.graph,
        positive_outcome=german_bundle.positive_label,
    )
    store = tmp_path / "store"
    with Registry(store) as registry:
        session = registry.add("german", lewis, default_actionable=german_bundle.actionable)
        expected = session.explain_global(max_pairs_per_attribute=2)["result"]

    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", RESTORE_AND_ANSWER, str(store)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["heavy"] == []
    assert report["result"] == expected


LINEAR_IP = """
import json, sys

import numpy as np

from repro.data.table import Table
from repro.xai.linear_ip import LinearIPRecourse

rng = np.random.default_rng(0)
a, b = rng.integers(0, 4, 400), rng.integers(0, 3, 400)
table = Table.from_codes(
    {"a": a, "b": b}, domains={"a": [0, 1, 2, 3], "b": [0, 1, 2]}
)
result = LinearIPRecourse(table, a + b >= 3, ["a", "b"]).solve({"a": 0, "b": 0}, 0.6)
heavy = sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx"))
print(json.dumps({"heavy": heavy, "cost": result.total_cost}))
"""


def test_linear_ip_baseline_solves_without_scipy():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", LINEAR_IP],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["heavy"] == []
    assert report["cost"] > 0
