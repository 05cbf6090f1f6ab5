"""Recourse-at-scale benchmark: parametric frontier search vs MILP, anytime mode.

Times one cohort recourse audit three ways and persists the numbers under
``benchmarks/results/recourse_scale.json``:

* **milp** — the signature programs solved one at a time by
  scipy/HiGHS, the MILP oracle of ``tests/oracles.py`` swapped in for
  the kernel's frontier search (the route every signature program used
  to take),
* **parametric** — the frontier search: every signature of the cohort
  searched level by level against cached parametric-dual grid bounds,
* **anytime** — greedy LP rounding with a certified optimality gap.

Three correctness gates run inside the benchmark, so a speedup can never
be bought with a wrong answer:

1. the MILP oracle really answered (its call count is not 0), so the
   search is not compared with itself,
2. parametric objectives match the MILP oracle to 1e-9 (and feasibility
   verdicts match exactly),
3. every anytime answer's cost exceeds the exact optimum by at most its
   reported ``optimality_gap``.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_recourse_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_recourse_scale.py --smoke   # CI guard

``--smoke`` shrinks the cohort and *asserts* the gates plus a perf
tripwire (the parametric search must not be slower than the MILP
oracle); the full run records the numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

PARITY_TOL = 1e-9
GAP_TOL = 1e-9


def _cohort_rows(lewis, cohort: int):
    negative = [int(i) for i in lewis.negative_indices()]
    indices = (negative * (cohort // max(len(negative), 1) + 1))[:cohort]
    return lewis.data.take(np.asarray(indices, dtype=np.int64))


def _timed_batch(solver, rows, alpha, **kwargs):
    start = time.perf_counter()
    out = solver.solve_batch(rows, alpha=alpha, on_infeasible="none", **kwargs)
    return time.perf_counter() - start, out


def _check_oracle_parity(oracle, fast) -> int:
    checked = 0
    for a, b in zip(oracle, fast):
        if (a is None) != (b is None):
            raise SystemExit("oracle parity violation: feasibility differs")
        if a is None:
            continue
        if abs(a.total_cost - b.total_cost) > PARITY_TOL:
            raise SystemExit(
                f"oracle parity violation: milp cost {a.total_cost} vs "
                f"parametric {b.total_cost}"
            )
        checked += 1
    return checked


def _check_anytime_gaps(exact, anytime) -> tuple[int, float]:
    certified = 0
    worst_gap = 0.0
    for e, a in zip(exact, anytime):
        if a is None or e is None:
            continue
        if a.optimality_gap < 0.0:
            raise SystemExit(f"negative optimality gap: {a.optimality_gap}")
        if a.total_cost - e.total_cost > a.optimality_gap + GAP_TOL:
            raise SystemExit(
                f"gap certificate violated: anytime {a.total_cost} vs exact "
                f"{e.total_cost} with gap {a.optimality_gap}"
            )
        certified += 1
        worst_gap = max(worst_gap, a.optimality_gap)
    return certified, worst_gap


def _committed_baseline() -> float | None:
    """PR-4 recourse batch seconds from the committed local_batch.json."""
    path = RESULTS_DIR / "local_batch.json"
    try:
        return float(json.loads(path.read_text())["recourse_audit"]["batch_s"])
    except (OSError, KeyError, ValueError, TypeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default=None, help="default: adult (full) / german (smoke)"
    )
    parser.add_argument("--rows", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--cohort", type=int, default=None, help="cohort size (default 1000/120)"
    )
    parser.add_argument("--alpha", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + assert parity, gaps and the MILP perf tripwire",
    )
    args = parser.parse_args(argv)

    from benchmarks.bench_local_batch import build_explainer
    from benchmarks.conftest import result_envelope
    from repro.core import recourse_kernel
    from repro.core.recourse import RecourseSolver
    from tests.oracles import milp_frontier_search

    dataset = args.dataset or ("german" if args.smoke else "adult")
    rows = args.rows if args.rows is not None else (400 if args.smoke else 6_000)
    cohort = args.cohort if args.cohort is not None else (120 if args.smoke else 1_000)

    bundle, lewis = build_explainer(dataset, rows, args.seed)
    actionable = list(bundle.actionable)
    cohort_rows = _cohort_rows(lewis, cohort)

    # Each measurement gets a fresh solver: the solution memo would
    # otherwise let the first run pre-pay for the rest.
    oracle_programs = []

    def milp_oracle(pack, rows, needed):
        oracle_programs.append(len(rows))
        return milp_frontier_search(pack, rows, needed)

    frontier_search = recourse_kernel.frontier_search
    recourse_kernel.frontier_search = milp_oracle
    try:
        milp_s, milp_out = _timed_batch(
            RecourseSolver(lewis.estimator, actionable), cohort_rows, args.alpha
        )
    finally:
        recourse_kernel.frontier_search = frontier_search
    if not sum(oracle_programs):
        raise SystemExit("the MILP oracle solved no program: nothing was compared")
    parametric_solver = RecourseSolver(lewis.estimator, actionable)
    parametric_s, parametric_out = _timed_batch(
        parametric_solver, cohort_rows, args.alpha
    )
    anytime_s, anytime_out = _timed_batch(
        RecourseSolver(lewis.estimator, actionable),
        cohort_rows,
        args.alpha,
        mode="anytime",
    )

    feasible = _check_oracle_parity(milp_out, parametric_out)
    certified, worst_gap = _check_anytime_gaps(parametric_out, anytime_out)

    memo = parametric_solver.solution_memo_stats()
    committed = _committed_baseline()
    result = {
        "provenance": result_envelope(),
        "dataset": dataset,
        "rows": rows,
        "population": len(lewis.data),
        "smoke": args.smoke,
        "cohort": len(cohort_rows),
        "alpha": args.alpha,
        "feasible": feasible,
        "distinct_signatures": memo["solved_signatures"],
        "milp_oracle_programs": sum(oracle_programs),
        "search_nodes": memo["search_nodes"],
        "milp_s": round(milp_s, 6),
        "parametric_s": round(parametric_s, 6),
        "anytime_s": round(anytime_s, 6),
        "speedup_vs_milp": (
            round(milp_s / parametric_s, 2) if parametric_s else float("inf")
        ),
        "committed_pr4_batch_s": committed,
        "speedup_vs_committed_parametric": (
            round(committed / parametric_s, 2) if committed and parametric_s else None
        ),
        "speedup_vs_committed_anytime": (
            round(committed / anytime_s, 2) if committed and anytime_s else None
        ),
        "anytime_certified": certified,
        "anytime_worst_gap": round(worst_gap, 9),
        "parity_tol": PARITY_TOL,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / (
        "recourse_scale_smoke.json" if args.smoke else "recourse_scale.json"
    )
    out_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {out_path}")

    if args.smoke:
        failures = []
        if parametric_s > milp_s:
            failures.append(
                f"parametric search {parametric_s:.3f}s slower than the MILP "
                f"oracle {milp_s:.3f}s"
            )
        if certified == 0 and feasible > 0:
            failures.append("anytime mode certified no feasible rows")
        if failures:
            print("SMOKE FAILURES:", "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke floors satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
