"""Observability overhead benchmark: the always-on path must stay <3%.

The obs subsystem (PR 7) instruments every hot path — result cache,
micro-batcher, engine, solver, WAL — and traces every POST at the HTTP
edge.  Its contract is that the *always-on* cost is negligible: one flag
check plus a handful of counter increments per request.  This benchmark
measures that cost end to end, at the HTTP layer, by driving an
identical mixed workload against one server with observability enabled
(``REPRO_OBS`` default) and disabled (``set_enabled(False)``) and
reports

    overhead_pct = (median of paired on/off ratios - 1) * 100

The statistical design matters more than the workload here.  The
per-request baseline (~1 ms) is dominated by the urllib socket
roundtrip, and on a shared machine the noise floor *wanders* on a
seconds timescale by 10%+ — far above the instrumentation cost being
measured — so comparing whole-run aggregates (medians or even minima
of long rounds) is hopelessly confounded.  Instead the flag alternates
every :data:`SEGMENT`-request slice (~25 ms), so each enabled segment
is **paired** with an immediately adjacent disabled segment that saw
essentially the same noise; the per-pair ratio cancels the wander, the
pair order alternates (ABBA) to cancel any residual linear drift, and
the median across many pairs suppresses what little unpaired noise
remains.

The workload mirrors real traffic: cache-hit global explains (the
dominant steady-state request), cache-miss local explains routed through
the micro-batcher, and score queries.  A full run persists its results
as JSON under ``benchmarks/results/obs_overhead.json`` so the overhead
trajectory is diffable across PRs.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke  # CI guard

``--smoke`` writes the git-ignored ``obs_overhead_smoke.json`` instead
and *exits 1* when the measured overhead reaches the 3% budget — the CI
tripwire for anyone adding instrumentation to a hot path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

OVERHEAD_BUDGET_PCT = 3.0


def build_server(rows: int, seed: int):
    import numpy as np

    from repro.core.lewis import Lewis
    from repro.data.table import Table
    from repro.service.server import create_server
    from repro.service.session import ExplainerSession

    rng = np.random.default_rng(seed)
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, rows).tolist(),
            "b": rng.integers(0, 3, rows).tolist(),
            "c": rng.integers(0, 4, rows).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "c": [0, 1, 2, 3]},
    )

    def model(features):
        return (features.codes("a") + features.codes("b")) >= 2

    lewis = Lewis(
        model, data=table, feature_names=["a", "b", "c"], infer_orderings=False
    )
    session = ExplainerSession(lewis, default_actionable=["a", "b"])
    server = create_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    return server, session, thread, f"http://{host}:{port}", len(table)


def post(base: str, path: str, payload: dict) -> None:
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        resp.read()


#: requests per timed segment — a multiple of the 10-request workload
#: cycle, so every segment runs the identical request mix.
SEGMENT = 30


def run_segment(base: str, n_rows: int) -> float:
    """Time one :data:`SEGMENT`-request slice of the standard mix.

    Every call issues byte-identical requests (fixed indices), so after
    warmup the only difference between timed segments is the obs flag.
    Returns per-request wall time in seconds.
    """
    t0 = time.perf_counter()
    for i in range(SEGMENT):
        step = i % 10
        if step < 6:
            # steady-state traffic: served from the result cache
            post(base, "/v1/explain/global", {"max_pairs_per_attribute": 4})
        elif step < 9:
            # cached after warmup; crossed the batcher to get there
            post(base, "/v1/explain/local", {"index": i % n_rows})
        else:
            post(
                base,
                "/v1/scores",
                {"contrasts": [[{"a": 2}, {"a": 0}]], "context": {}},
            )
    return (time.perf_counter() - t0) / SEGMENT


def measure(pairs: int, rows: int, seed: int) -> dict:
    from repro.obs import metrics as obs

    server, session, thread, base, n_rows = build_server(rows, seed)
    try:
        # warm both paths until steady: caches filled (the local-explain
        # misses cross the batcher here, once), lazy imports done, server
        # thread hot.  Generous because the first enabled round showed a
        # multi-hundred-µs first-touch ramp in profiling.
        for flag in (True, True, False, True):
            obs.set_enabled(flag)
            run_segment(base, n_rows)

        enabled_s: list[float] = []
        disabled_s: list[float] = []
        for k in range(pairs):
            # ABBA at pair level: even pairs run on→off, odd off→on, so
            # any residual linear drift inside a pair cancels too.
            order = ((True, enabled_s), (False, disabled_s))
            if k % 2:
                order = order[::-1]
            for flag, sink in order:
                obs.set_enabled(flag)
                sink.append(run_segment(base, n_rows))
        obs.set_enabled(True)
    finally:
        obs.set_enabled(True)
        server.shutdown()
        server.server_close()
        session.close()

    # Each enabled segment is compared against its own adjacent disabled
    # segment: the pair saw the same noise, so the ratio isolates the
    # instrumentation cost; the median across pairs discards outliers.
    ratios = [on / off for on, off in zip(enabled_s, disabled_s)]
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    return {
        "pairs": pairs,
        "segment": SEGMENT,
        "population": n_rows,
        "enabled_per_request_us": [round(t * 1e6, 3) for t in enabled_s],
        "disabled_per_request_us": [round(t * 1e6, 3) for t in disabled_s],
        "pair_overhead_pct": [round((r - 1.0) * 100.0, 3) for r in ratios],
        "per_request_enabled_us": round(
            statistics.median(enabled_s) * 1e6, 3
        ),
        "per_request_disabled_us": round(
            statistics.median(disabled_s) * 1e6, 3
        ),
        "overhead_pct": round(overhead_pct, 3),
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="exit 1 when overhead >= budget (CI guard)",
    )
    parser.add_argument(
        "--pairs", type=int, default=None,
        help="number of paired on/off segments (default: 150)",
    )
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    # the paired-ratio median needs ~100+ pairs to push its sampling
    # error well under the 3% budget (per-pair ratio sigma is a few
    # percent on a busy machine); ~10 s of wall time buys a stable gate.
    pairs = args.pairs or 150

    # A single measurement still has a small tail past the budget on a
    # loud machine, so the smoke gate escalates: a passing first attempt
    # is final; a failing one is re-measured (up to 3 attempts total)
    # and the verdict is the median attempt.  A genuine regression fails
    # every attempt; a noise spike loses the vote.
    attempts = [measure(pairs, args.rows, args.seed)]
    while (
        args.smoke
        and attempts[-1]["overhead_pct"] >= OVERHEAD_BUDGET_PCT
        and len(attempts) < 3
    ):
        print(
            f"attempt {len(attempts)}: overhead "
            f"{attempts[-1]['overhead_pct']:+.3f}% over budget; re-measuring"
        )
        attempts.append(measure(pairs, args.rows, args.seed))

    result = attempts[-1]
    verdict_pct = statistics.median(a["overhead_pct"] for a in attempts)
    from conftest import result_envelope

    result["provenance"] = result_envelope()
    result["mode"] = "smoke" if args.smoke else "full"
    result["attempt_overheads_pct"] = [a["overhead_pct"] for a in attempts]
    result["verdict_pct"] = round(verdict_pct, 3)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / (
        "obs_overhead_smoke.json" if args.smoke else "obs_overhead.json"
    )
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    print(
        f"observability overhead: {verdict_pct:+.3f}% "
        f"(enabled {result['per_request_enabled_us']:.1f} us/req, "
        f"disabled {result['per_request_disabled_us']:.1f} us/req, "
        f"budget {OVERHEAD_BUDGET_PCT:g}%, "
        f"{len(attempts)} attempt(s))"
    )
    print(f"wrote {out_path}")

    if args.smoke and verdict_pct >= OVERHEAD_BUDGET_PCT:
        print(
            f"FAIL: overhead {verdict_pct:.3f}% >= "
            f"{OVERHEAD_BUDGET_PCT:g}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
