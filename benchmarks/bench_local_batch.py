"""Cohort fast-path benchmark: batched local explanations & recourse audits.

Measures the two speedups the cohort fast path exists for and persists
them as machine-readable JSON under ``benchmarks/results/local_batch.json``:

* **cohort local explanations** — ``Lewis.explain_local_batch`` over N
  rows (probes deduplicated, one regression matrix pass per attribute
  group) vs the per-row scalar loop
  (``tests/oracles.py::local_explanation_scalar``); target: >= 10x at
  1k rows on adult,
* **cohort recourse audit** — ``RecourseSolver.solve_batch`` over the
  cohort (one logit matrix pass for base probabilities + one IP
  build/solve per distinct signature) vs one-row cohorts solved in turn
  on a fresh solver.

Both fast paths are parity-checked against their scalar loops at 1e-12
inside the timed run, so a speedup can never be bought with a wrong
answer.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_local_batch.py            # full
    PYTHONPATH=src python benchmarks/bench_local_batch.py --smoke    # CI guard

``--smoke`` shrinks the cohort and *asserts* that each batch path is at
least as fast as its scalar loop (exit 1 on regression — the cheap
perf-regression tripwire); the full run records the numbers.
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

PARITY_TOL = 1e-12

#: smoke floor — the batch path must never be slower than the scalar
#: loop, whatever the scale; full runs target >= 10x for the local path.
SMOKE_MIN_SPEEDUP = 1.0


def build_explainer(dataset: str, rows: int, seed: int):
    from repro import Lewis, fit_table_model, load_dataset, train_test_split

    bundle = load_dataset(dataset, n_rows=rows, seed=seed)
    train, test = train_test_split(bundle.table, test_fraction=0.5, seed=seed)
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
    return bundle, lewis


def _timed(fn, repeats: int):
    """(median wall time, last result) of ``fn`` over ``repeats`` runs."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def bench_local(lewis, cohort: int, repeats: int) -> dict:
    from tests.oracles import local_explanation_scalar

    indices = [int(i) for i in range(min(cohort, len(lewis.data)))]

    # Warm the per-attribute regression models once: both paths share
    # the estimator's model cache, so neither timing pays the one-time
    # fit and the comparison isolates probe evaluation.
    lewis.explain_local_batch(indices[:1])

    batch_s, batched = _timed(
        lambda: lewis.explain_local_batch(indices), repeats
    )

    def scalar_loop():
        return [
            local_explanation_scalar(
                lewis.estimator,
                lewis.data.row_codes(i),
                bool(lewis.positive[i]),
                lewis.attributes,
            )
            for i in indices
        ]

    scalar_s, scalar = _timed(scalar_loop, repeats)

    for fast, slow in zip(batched, scalar):
        for a, b in zip(fast.contributions, slow.contributions):
            if (
                abs(a.positive - b.positive) > PARITY_TOL
                or abs(a.negative - b.negative) > PARITY_TOL
                or a.positive_foil != b.positive_foil
                or a.negative_foil != b.negative_foil
            ):
                raise SystemExit(f"local parity violation: {a} != {b}")

    return {
        "cohort": len(indices),
        "batch_s": round(batch_s, 6),
        "scalar_s": round(scalar_s, 6),
        "speedup": round(scalar_s / batch_s, 2) if batch_s else float("inf"),
        "parity_tol": PARITY_TOL,
    }


def bench_recourse(lewis, actionable, cohort: int, alpha: float) -> dict:
    import numpy as np

    from repro.core.recourse import RecourseSolver
    from repro.utils.exceptions import RecourseInfeasibleError

    negative = [int(i) for i in lewis.negative_indices()]
    indices = (negative * (cohort // max(len(negative), 1) + 1))[:cohort]
    rows = lewis.data.take(np.asarray(indices, dtype=np.int64))

    batch_solver = RecourseSolver(lewis.estimator, list(actionable))
    start = time.perf_counter()
    batched = batch_solver.solve_batch(rows, alpha=alpha, on_infeasible="none")
    batch_s = time.perf_counter() - start

    scalar_solver = RecourseSolver(lewis.estimator, list(actionable))
    start = time.perf_counter()
    scalar = []
    for i in range(len(rows)):
        try:
            scalar.append(scalar_solver.solve_batch(rows.take([i]), alpha=alpha)[0])
        except RecourseInfeasibleError:
            scalar.append(None)
    scalar_s = time.perf_counter() - start

    feasible = 0
    for fast, slow in zip(batched, scalar):
        if (fast is None) != (slow is None):
            raise SystemExit("recourse parity violation: feasibility differs")
        if fast is None:
            continue
        feasible += 1
        if fast.as_dict() != slow.as_dict() or abs(
            fast.total_cost - slow.total_cost
        ) > PARITY_TOL:
            raise SystemExit(
                f"recourse parity violation: {fast.as_dict()} != {slow.as_dict()}"
            )

    memo = batch_solver.solution_memo_stats()
    return {
        "cohort": len(indices),
        "alpha": alpha,
        "feasible": feasible,
        "distinct_signatures": memo["solved_signatures"],
        "batch_s": round(batch_s, 6),
        "scalar_s": round(scalar_s, 6),
        "speedup": round(scalar_s / batch_s, 2) if batch_s else float("inf"),
        "parity_tol": PARITY_TOL,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default=None, help="default: adult (full) / german (smoke)"
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--cohort", type=int, default=None, help="cohort size (default 1000/60)"
    )
    parser.add_argument("--alpha", type=float, default=0.7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats for the local path (median); recourse runs "
        "once per solver since its solution memo would distort repeats",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + assert the batch paths beat the scalar loops",
    )
    args = parser.parse_args(argv)

    from benchmarks.conftest import result_envelope

    dataset = args.dataset or ("german" if args.smoke else "adult")
    rows = args.rows if args.rows is not None else (400 if args.smoke else 6_000)
    # Smoke recycles the negative pool into a 120-row cohort: duplicate
    # signatures are the realistic audit shape and what dedup amortises.
    cohort = args.cohort if args.cohort is not None else (120 if args.smoke else 1_000)

    bundle, lewis = build_explainer(dataset, rows, args.seed)
    local = bench_local(lewis, cohort, max(args.repeats, 1))
    recourse = bench_recourse(lewis, bundle.actionable, cohort, args.alpha)

    result = {
        "provenance": result_envelope(),
        "dataset": dataset,
        "rows": rows,
        "population": len(lewis.data),
        "smoke": args.smoke,
        "local_explanations": local,
        "recourse_audit": recourse,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / (
        "local_batch_smoke.json" if args.smoke else "local_batch.json"
    )
    out_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {out_path}")

    if args.smoke:
        failures = []
        for name, section in (
            ("local_explanations", local),
            ("recourse_audit", recourse),
        ):
            if section["speedup"] < SMOKE_MIN_SPEEDUP:
                failures.append(
                    f"{name} speedup {section['speedup']} < {SMOKE_MIN_SPEEDUP} "
                    "(batch path slower than the scalar loop)"
                )
        if failures:
            print("SMOKE FAILURES:", "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke floors satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
