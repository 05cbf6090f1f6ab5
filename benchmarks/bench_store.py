"""Durable-store benchmark: warm-boot speedup and WAL replay throughput.

Measures the two numbers the persistence subsystem exists for and
persists them as machine-readable JSON under
``benchmarks/results/store.json``:

* **warm boot vs cold boot** — time from nothing to "first global
  explanation answered" when restoring a tenant from its snapshot
  (model JSON + table npz + positive vector + WAL tail; the count
  tensors are counted from the table on first use) vs building it from
  scratch (train the black box, predict the population, infer
  orderings, count tensors).  Target: >= 10x on adult.
* **replay throughput** — write-ahead-log deltas replayed per second
  during recovery (restore with a populated tail), and the fsync'd
  append rate on the write path.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_store.py             # full
    PYTHONPATH=src python benchmarks/bench_store.py --smoke     # CI guard

``--smoke`` shrinks the dataset and *asserts* conservative floors
(exit 1 on regression); the full run records the trajectory numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Conservative floors for --smoke: tiny datasets shrink the training
# cost a warm boot skips, so the floors sit far below the full-scale
# target — they catch "restore started re-training", not noise.
SMOKE_MIN_WARM_SPEEDUP = 2.0
SMOKE_MIN_REPLAY_PER_S = 5.0


def _timed(fn, repeats: int) -> tuple[float, object]:
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


def cold_boot(dataset: str, rows: int, seed: int, max_pairs: int):
    """Everything a fresh process pays: train, build, explain once."""
    from repro import Lewis, fit_table_model, load_dataset, train_test_split
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
    lewis = Lewis(
        model,
        data=test,
        graph=bundle.graph,
        positive_outcome=bundle.positive_label,
    )
    session = ExplainerSession(lewis, default_actionable=bundle.actionable)
    session.explain_global(max_pairs_per_attribute=max_pairs)
    return bundle, session


def run(dataset: str, rows: int, replay_deltas: int, repeats: int, seed: int) -> dict:
    from repro.store import ArtifactStore, checkpoint_session, create_tenant, restore_session

    max_pairs = 6
    store_dir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        store = ArtifactStore(store_dir)

        # -- cold boot ----------------------------------------------------
        cold_s, (bundle, session) = _timed(
            lambda: cold_boot(dataset, rows, seed, max_pairs), 1
        )
        tenant = create_tenant(
            store,
            dataset,
            session.lewis,
            default_actionable=bundle.actionable,
            snapshot=False,
        )
        snapshot_s, _ = _timed(
            lambda: checkpoint_session(store, tenant, dataset), 1
        )

        # -- warm boot ----------------------------------------------------
        def warm_boot():
            restored = restore_session(store, dataset)
            restored.explain_global(max_pairs_per_attribute=max_pairs)
            restored.close()
            return restored

        warm_s, _ = _timed(warm_boot, repeats)

        def bare_restore():
            restored = restore_session(store, dataset)
            restored.close()
            return restored

        # restore with an empty tail: the baseline the replay time rides on
        restore_only_s, _ = _timed(bare_restore, repeats)

        # -- WAL append + replay throughput -------------------------------
        rows_batch = [tenant.lewis.data.row(i) for i in range(replay_deltas)]
        append_start = time.perf_counter()
        for row in rows_batch:
            tenant.update({"insert": [row]})
        append_s = time.perf_counter() - append_start

        replay_total_s, restored = _timed(bare_restore, repeats)
        replay_s = max(replay_total_s - restore_only_s, 1e-9)
        assert len(restored.lewis.data) == len(tenant.lewis.data)
        tenant.close()
        store_bytes = store.stats()["object_bytes"]
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    return {
        "dataset": dataset,
        "rows": rows,
        "population": len(tenant.lewis.data) - replay_deltas,
        "repeats": repeats,
        "cold_boot_s": round(cold_s, 6),
        "warm_boot_s": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
        "snapshot_s": round(snapshot_s, 6),
        "restore_only_s": round(restore_only_s, 6),
        "store_bytes": store_bytes,
        "wal_deltas": replay_deltas,
        "wal_append_s": round(append_s, 6),
        "wal_appends_per_s": round(replay_deltas / append_s, 2) if append_s else float("inf"),
        "wal_replay_s": round(replay_s, 6),
        "wal_replays_per_s": round(replay_deltas / replay_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default=None, help="default: adult (full) / german (smoke)"
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--deltas", type=int, default=50, help="WAL records for the replay measurement"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + assert conservative floors (CI guard)",
    )
    args = parser.parse_args(argv)

    from benchmarks.conftest import result_envelope

    dataset = args.dataset or ("german" if args.smoke else "adult")
    rows = args.rows if args.rows is not None else (300 if args.smoke else 20_000)
    deltas = min(args.deltas, 20) if args.smoke else args.deltas
    result = run(dataset, rows, deltas, args.repeats, args.seed)
    result["smoke"] = args.smoke
    result = {"provenance": result_envelope(), **result}

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / ("store_smoke.json" if args.smoke else "store.json")
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {out_path}")

    if args.smoke:
        failures = []
        if result["warm_speedup"] < SMOKE_MIN_WARM_SPEEDUP:
            failures.append(
                f"warm_speedup {result['warm_speedup']} < {SMOKE_MIN_WARM_SPEEDUP}"
            )
        if result["wal_replays_per_s"] < SMOKE_MIN_REPLAY_PER_S:
            failures.append(
                f"wal_replays_per_s {result['wal_replays_per_s']} < "
                f"{SMOKE_MIN_REPLAY_PER_S}"
            )
        if failures:
            print("SMOKE FAILURES:", "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke floors satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
