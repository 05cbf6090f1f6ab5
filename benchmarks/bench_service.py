"""Serving-layer benchmark: cache-hit latency and incremental updates.

Measures the two speedups the service subsystem exists for and persists
them as machine-readable JSON under ``benchmarks/results/service.json``
so the perf trajectory is diffable across PRs:

* **cache-hit latency** — a repeated ``explain_global`` request answered
  from the result cache vs recomputed (target: >= 10x),
* **re-explain-after-append** — appending a batch of rows via
  ``apply_delta`` (in-place tensor maintenance + targeted cache purge)
  and re-explaining, vs rebuilding the explainer from scratch over the
  grown table and explaining (target: >= 5x).

The rebuild baseline reuses the already-trained model — it isolates the
explainer/engine rebuild the serving layer avoids, not model training,
so the reported speedups are conservative.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_service.py             # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke     # CI guard

``--smoke`` shrinks the dataset and asserts (exit 1 on regression) a
conservative cache-hit speedup floor and the delta path itself: after a
warm ``explain_global``, one update plus the same explanation adds no
tensor-cache miss and runs the black box on the inserted rows only.  A
floor on ``incremental_speedup`` would not tell a broken delta path
from noise at smoke scale, where a rebuild is cheap too, so that ratio
is recorded, not asserted.  The full run just records the numbers.
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

# Conservative floor for --smoke.  At full scale (adult, ~6k-row
# population) the measured cache-hit speedup is ~2000x; smoke runs a much
# smaller population, so the floor sits well below it — it catches "the
# result cache stopped working", not noise.
SMOKE_MIN_HIT_SPEEDUP = 5.0


def _timed(fn, repeats: int) -> float:
    """Median wall time of ``fn`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def build_explainer(dataset: str, rows: int, seed: int):
    from repro import Lewis, fit_table_model, load_dataset, train_test_split

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
    lewis = Lewis(
        model,
        data=test,
        graph=bundle.graph,
        positive_outcome=bundle.positive_label,
    )
    return bundle, model, lewis


def run(dataset: str, rows: int, append: int, repeats: int, seed: int) -> dict:
    from repro import Lewis
    from repro.service import ExplainerSession

    bundle, model, lewis = build_explainer(dataset, rows, seed)
    initial_n = len(lewis.data)
    session = ExplainerSession(lewis)
    max_pairs = 6

    # -- cache-hit latency -------------------------------------------------
    miss_s = _timed(
        lambda: session.explain_global(max_pairs_per_attribute=max_pairs), 1
    )
    hit_s = _timed(
        lambda: session.explain_global(max_pairs_per_attribute=max_pairs),
        max(repeats, 5),
    )

    # -- re-explain-after-append ------------------------------------------
    def incremental_round() -> None:
        rows_batch = [lewis.data.row(i % initial_n) for i in range(append)]
        session.update({"insert": rows_batch})
        session.explain_global(max_pairs_per_attribute=max_pairs)

    # The delta path, checked exactly on one round after the warm
    # explanation: the update adds the rows to the cached tensors and
    # predicts only them, so the re-explanation reads every tensor it
    # needs from the cache.
    engine = lewis.estimator.engine
    predicted_rows: list[int] = []
    predict = lewis.predict_positive

    def counting_predict(table):
        predicted_rows.append(len(table))
        return predict(table)

    lewis.predict_positive = counting_predict
    misses_before = engine.cache_stats().misses
    incremental_round()
    delta_tensor_misses = engine.cache_stats().misses - misses_before
    del lewis.predict_positive

    incremental_s = _timed(incremental_round, repeats)

    def rebuild_round() -> None:
        fresh = Lewis(
            model,
            data=lewis.data,
            graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )
        fresh.explain_global(max_pairs_per_attribute=max_pairs)

    rebuild_s = _timed(rebuild_round, repeats)
    session.close()

    return {
        "dataset": dataset,
        "rows": rows,
        "population": len(lewis.data),
        "append_batch": append,
        "repeats": repeats,
        "explain_miss_s": round(miss_s, 6),
        "explain_hit_s": round(hit_s, 6),
        "cache_hit_speedup": round(miss_s / hit_s, 2) if hit_s else float("inf"),
        "reexplain_incremental_s": round(incremental_s, 6),
        "reexplain_rebuild_s": round(rebuild_s, 6),
        "incremental_speedup": round(rebuild_s / incremental_s, 2)
        if incremental_s
        else float("inf"),
        "delta_tensor_misses": delta_tensor_misses,
        "delta_blackbox_rows": predicted_rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default=None, help="default: adult (full) / german (smoke)"
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--append", type=int, default=20, help="rows appended per update round"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + assert conservative speedup floors (CI guard)",
    )
    args = parser.parse_args(argv)

    from benchmarks.conftest import result_envelope

    dataset = args.dataset or ("german" if args.smoke else "adult")
    rows = args.rows if args.rows is not None else (300 if args.smoke else 20_000)
    result = run(dataset, rows, args.append, args.repeats, args.seed)
    result["smoke"] = args.smoke
    result = {"provenance": result_envelope(), **result}

    RESULTS_DIR.mkdir(exist_ok=True)
    # Smoke runs use tiny sizes; keep them out of the committed
    # full-scale trajectory file.
    out_path = RESULTS_DIR / ("service_smoke.json" if args.smoke else "service.json")
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {out_path}")

    if args.smoke:
        failures = []
        if result["cache_hit_speedup"] < SMOKE_MIN_HIT_SPEEDUP:
            failures.append(
                f"cache_hit_speedup {result['cache_hit_speedup']} < "
                f"{SMOKE_MIN_HIT_SPEEDUP}"
            )
        if result["delta_tensor_misses"]:
            failures.append(
                f"re-explaining after an update missed the tensor cache "
                f"{result['delta_tensor_misses']} times"
            )
        if result["delta_blackbox_rows"] != [result["append_batch"]]:
            failures.append(
                f"an update of {result['append_batch']} rows ran the black "
                f"box on {result['delta_blackbox_rows']} rows"
            )
        if failures:
            print("SMOKE FAILURES:", "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke checks satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
