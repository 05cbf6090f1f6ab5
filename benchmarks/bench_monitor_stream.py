"""Streaming-monitor benchmark: incremental refresh vs recompute-per-batch.

The monitor subsystem's perf claim: after a WAL delta batch, refreshing
every standing monitor from the engine's *maintained* count tensors is
much cheaper than recomputing each summary on a fresh estimator — the
recompute-per-batch straw man a naive drift dashboard would run. Both
paths produce bit-identical summaries (asserted every batch here; the
parity property is tested in ``tests/test_monitor_stream.py``), so the
race is purely about the incremental-view-maintenance discipline.

Measures, over N insert batches against one session with a score, a
fairness, a monotonicity and a recourse monitor registered:

* median per-batch latency of ``MonitorSet.refresh()`` (the subsystem's
  all-monitors incremental pass)
* per monitor kind, the incremental summary vs the from-scratch rebuild
  (``tests/oracles.py::rebuild_summary``: re-predict the population,
  recount, re-solve) and their speedups
* the headline ``score_speedup`` — the NEC-score monitor's incremental
  vs rebuilt refresh (target: >= 5x at adult scale)

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_monitor_stream.py           # full
    PYTHONPATH=src python benchmarks/bench_monitor_stream.py --smoke   # CI guard

``--smoke`` shrinks the dataset and *asserts* that incremental beats the
full recompute (exit 1 on regression); the full run records trajectory
numbers to ``benchmarks/results/monitor_stream.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: conservative floor for --smoke: tiny tables shrink the recount cost
#: the incremental path skips, so just require a win, not the full 5x.
SMOKE_MIN_SPEEDUP = 1.0
FULL_TARGET_SPEEDUP = 5.0


def build_session(dataset: str, rows: int, seed: int):
    from repro import fit_table_model, load_dataset, train_test_split
    from repro.service import ExplainerSession

    bundle = load_dataset(dataset, n_rows=rows, seed=seed)
    train, test = train_test_split(bundle.table, test_fraction=0.3, seed=seed)
    model = fit_table_model(
        "random_forest",
        train,
        bundle.feature_names,
        bundle.label,
        seed=seed,
        n_estimators=15,
        max_depth=8,
    )
    from repro import Lewis

    lewis = Lewis(
        model,
        data=test.select(bundle.feature_names),
        graph=bundle.graph,
        positive_outcome=bundle.positive_label,
    )
    return bundle, ExplainerSession(lewis, default_actionable=bundle.actionable)


def monitor_payloads(bundle) -> list[dict]:
    attribute = bundle.feature_names[0]
    column = bundle.table.column(attribute)
    protected = next(
        (n for n in bundle.feature_names if n in ("sex", "gender", "race")),
        bundle.feature_names[-1],
    )
    return [
        {
            "kind": "score",
            "params": {
                "attribute": attribute,
                "value": column.categories[-1],
                "baseline": column.categories[0],
            },
            "threshold": 0.05,
        },
        {"kind": "fairness", "params": {"attribute": protected}},
        {"kind": "monotonicity", "params": {"attribute": attribute}},
        {
            "kind": "recourse",
            "params": {"actionable": list(bundle.actionable), "probe_size": 8},
        },
    ]


def run(dataset: str, rows: int, batches: int, batch_rows: int, seed: int) -> dict:
    import numpy as np

    from repro.monitor import MonitorSet
    from tests.oracles import rebuild_summary

    bundle, session = build_session(dataset, rows, seed)
    monitors = MonitorSet(session)
    ids = [monitors.add(payload)["id"] for payload in monitor_payloads(bundle)]
    specs = {i: monitors._monitors[i]["spec"] for i in ids}

    from repro.monitor.summaries import compute_summary

    rng = np.random.default_rng(seed)
    source = session.lewis.data
    refresh_times: list[float] = []
    per_kind_inc: dict[str, list[float]] = {specs[i]["kind"]: [] for i in ids}
    per_kind_reb: dict[str, list[float]] = {specs[i]["kind"]: [] for i in ids}
    for _ in range(batches):
        picks = rng.integers(0, len(source), size=batch_rows)
        session.update({"insert": [source.row(int(i)) for i in picks]})

        # per-monitor race, timed *before* the lane refresh so the
        # incremental side is the first (cold-memo) evaluation at this
        # table version: incremental summary vs from-scratch rebuild
        # (re-predict the population, recount, re-solve)
        rebuilt = {}
        for i in ids:
            kind, spec = specs[i]["kind"], specs[i]
            start = time.perf_counter()
            incremental = compute_summary(session.lewis, spec)
            mid = time.perf_counter()
            rebuilt[i] = rebuild_summary(session.lewis, spec)
            per_kind_inc[kind].append(mid - start)
            per_kind_reb[kind].append(time.perf_counter() - mid)
            assert incremental == rebuilt[i], i

        # the subsystem path: one lane-dispatched refresh of all
        # monitors (detector evaluation included)
        start = time.perf_counter()
        monitors.refresh()
        refresh_times.append(time.perf_counter() - start)

        for i in ids:  # the race is only fair if all paths agree exactly
            assert monitors._monitors[i]["summary"] == rebuilt[i], i

    def med(times: list[float]) -> float:
        return statistics.median(times)

    kinds = {
        kind: {
            "incremental_s": round(med(per_kind_inc[kind]), 6),
            "recompute_s": round(med(per_kind_reb[kind]), 6),
            "speedup": round(med(per_kind_reb[kind]) / med(per_kind_inc[kind]), 2),
        }
        for kind in per_kind_inc
    }
    incremental = sum(med(per_kind_inc[k]) for k in per_kind_inc)
    recompute = sum(med(per_kind_reb[k]) for k in per_kind_reb)
    return {
        "dataset": dataset,
        "rows": rows,
        "population": len(session.lewis.data),
        "monitors": [specs[i]["kind"] for i in ids],
        "batches": batches,
        "batch_rows": batch_rows,
        "refresh_all_s": round(med(refresh_times), 6),
        "per_kind": kinds,
        "incremental_per_batch_s": round(incremental, 6),
        "recompute_per_batch_s": round(recompute, 6),
        "speedup": round(recompute / incremental, 2) if incremental else float("inf"),
        "score_speedup": kinds["score"]["speedup"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default=None, help="default: adult (full) / german (smoke)"
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size")
    parser.add_argument("--batches", type=int, default=None, help="delta batches")
    parser.add_argument("--batch-rows", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + assert incremental beats recompute (CI guard)",
    )
    args = parser.parse_args(argv)

    from benchmarks.conftest import SIZES, result_envelope

    dataset = args.dataset or ("german" if args.smoke else "adult")
    rows = args.rows if args.rows is not None else (
        300 if args.smoke else SIZES[dataset]
    )
    batches = args.batches if args.batches is not None else (8 if args.smoke else 30)
    result = run(dataset, rows, batches, args.batch_rows, args.seed)
    result["smoke"] = args.smoke
    result = {"provenance": result_envelope(), **result}

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / (
        "monitor_stream_smoke.json" if args.smoke else "monitor_stream.json"
    )
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {out_path}")

    if args.smoke:
        if result["speedup"] <= SMOKE_MIN_SPEEDUP:
            print(
                f"SMOKE FAILURE: incremental refresh no faster than recompute "
                f"(speedup {result['speedup']})",
                file=sys.stderr,
            )
            return 1
        print("smoke floor satisfied: incremental beats full recompute")
    elif result["score_speedup"] < FULL_TARGET_SPEEDUP:
        print(
            f"WARNING: score-monitor speedup {result['score_speedup']} below "
            f"the {FULL_TARGET_SPEEDUP}x target at {dataset} scale",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
