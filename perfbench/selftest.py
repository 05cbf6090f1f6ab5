"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The last test runs every workload briefly against a live server (about
two minutes on two cores).
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from stats import METRIC_NAME, TailTooThin, tail_percentile

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

INFO = {
    "n_rows": 600,
    "features": ["sex", "age", "country", "edu", "marital", "occup", "class", "hours"],
    "domains": {
        "sex": ["Female", "Male"],
        "age": ["<=30 yr", "31-45 yr", "46-60 yr", ">60 yr"],
        "country": ["other", "USA"],
        "edu": ["dropout", "HS-grad", "bachelors", "masters+"],
        "marital": ["never married", "divorced", "married"],
        "occup": ["service", "blue-collar", "sales", "professional"],
        "class": ["private", "gov", "self-employed"],
        "hours": ["<30", "30-40", "40-50", ">50"],
    },
    "negative_indices": list(range(0, 600, 2)),
}

STREAMS = {
    "explain_mix": lambda seed: gen.explain_mix(seed, 0, INFO),
    "recourse_audit": lambda seed: gen.recourse_audit(seed, 0, INFO),
    "update_writer": lambda seed: gen.update_writer(seed, INFO),
    "update_reader": lambda seed: gen.update_reader(seed, INFO),
    "update_stream": lambda seed: gen.update_stream(seed, INFO),
}


def _take(stream, n=200):
    return json.dumps(list(itertools.islice(stream, n)), sort_keys=True)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_requests_other_seed_other_requests(name):
    make = STREAMS[name]
    assert _take(make(7)) == _take(make(7))
    assert _take(make(7)) != _take(make(8))


def test_explain_mix_repeats_recent_requests():
    requests = [json.dumps(r, sort_keys=True)
                for r in itertools.islice(gen.explain_mix(3, 0, INFO), 2000)]
    # one in five is an explicit repeat; a few more collide by chance
    repeats = len(requests) - len(set(requests))
    assert 0.2 <= repeats / len(requests) < 0.4


def test_update_deltas_keep_the_population_size():
    for route, body in itertools.islice(gen.update_writer(5, INFO), 200):
        assert route == "update"
        assert 1 <= len(body["insert"]) == len(body["delete"]) <= gen.MAX_DELTA_ROWS
        assert len(set(body["delete"])) == len(body["delete"])
        assert all(0 <= i < INFO["n_rows"] for i in body["delete"])


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert names and len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_reported_metrics_match_the_declared_ones():
    import run

    window = run.Window(seconds=1.0, records=[run.Record("scores", 0.01, True)] * 200)
    e2e = run.end_to_end(window, [1.0], 100.0)
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    layers = run.per_layer(window, [], {}, {}, [], 200.0)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    declared = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                for m in BENCHMARK[key]}
    for name, (_value, unit) in {**e2e, **layers}.items():
        assert declared[name] == unit, name


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(TailTooThin):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(TailTooThin):
        tail_percentile(list(range(500)), 99)


def test_self_time_subtracts_child_spans():
    from spans import self_times

    spans = [
        (1, 0, "service.session:ExplainerSession.handle", 0.0, 10.0, "r", None),
        (2, 1, "service.scheduler:MicroBatcher.run", 1.0, 4.0, "r", None),
        (3, 1, "service.cache:ResultCache.get", 5.0, 6.0, "r", None),
    ]
    own = {name: self_s for name, _d, self_s, _r, _s in self_times(spans)}
    assert own["service.session:ExplainerSession.handle"] == 6.0
    assert own["service.scheduler:MicroBatcher.run"] == 3.0


@pytest.mark.parametrize("workload", ["explain_mix", "recourse_audit", "update_stream"])
def test_short_run_has_no_errors(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
