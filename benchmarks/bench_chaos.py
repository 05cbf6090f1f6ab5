"""Seeded fault-plan matrix against a live server: the containment gate.

Each round builds a fresh durable tenant, starts a real HTTP server,
installs one deterministic seeded :class:`repro.faults.FaultPlan` over
the storage / monitor injection points, drives a mixed workload
through the front door, and then restores the tenant from disk with the
faults gone.  Across every round the serving stack must hold four
invariants — the acceptance gate of the fault-injection PR:

1. **No 500s, ever.**  Every injected failure maps to a typed status
   (429 / 503 / 504 / 200-degraded), never an internal error.
2. **No deadlocks.**  Every request answers within a hard timeout.
3. **No silent degradation.**  A 200 under fault pressure either
   matches the fault-free answer bit for bit or carries
   ``degraded: true`` with a reason.
4. **Bit-identical recovery.**  Every acknowledged update survives the
   restart; when no ack-window (fsync) fault fired, the restored tenant
   matches the live one's fingerprint and version exactly.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_chaos.py           # 120 plans
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke   # 50, CI gate

``--smoke`` exits 1 on any invariant violation.  Results (including
per-point fault counts, so CI can archive what was actually injected)
land in ``benchmarks/results/chaos_smoke.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

REQUEST_TIMEOUT_S = 20.0  # the deadlock tripwire
UPDATES_PER_ROUND = 8
#: statuses a request may legally end with under injected faults
ALLOWED_STATUSES = {200, 400, 409, 422, 429, 503, 504}


def make_lewis(rows: int = 120):
    import numpy as np

    from repro import fit_table_model
    from repro.core.lewis import Lewis
    from repro.data.table import Table

    rng = np.random.default_rng(7)  # fixed data: rounds vary only by plan
    cols = {
        "a": rng.integers(0, 3, rows).tolist(),
        "b": rng.integers(0, 3, rows).tolist(),
        "c": rng.integers(0, 4, rows).tolist(),
    }
    cols["y"] = [
        int(a + b >= 2) for a, b in zip(cols["a"], cols["b"])
    ]
    table = Table.from_dict(
        cols,
        domains={
            "a": [0, 1, 2], "b": [0, 1, 2], "c": [0, 1, 2, 3], "y": [0, 1],
        },
    )
    # a fitted (serialisable) model: tenants must survive snapshotting
    model = fit_table_model("logistic", table, ["a", "b", "c"], "y", seed=0)
    return Lewis(
        model,
        data=table.select(["a", "b", "c"]),
        attributes=["a", "b", "c"],
        positive_outcome=1,
        infer_orderings=False,
    )


def http(base: str, path: str, payload=None, headers=None, method=None):
    """One request; returns (status, parsed body). Timeouts propagate."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except Exception:  # noqa: BLE001 - error bodies are best-effort
            body = {}
        return exc.code, body


def build_plan(seed: int):
    """A randomized-but-deterministic fault plan for one round."""
    import repro.faults as faults

    rng = random.Random(seed)
    points = {}
    # one or two WAL append faults (write / torn / fsync)
    for point in rng.sample(
        ["wal.append.write", "wal.append.torn", "wal.append.fsync"],
        k=rng.choice([1, 2]),
    ):
        points[point] = {"probability": round(rng.uniform(0.05, 0.35), 3)}
    if rng.random() < 0.5:
        points[rng.choice(["store.atomic_write", "store.atomic_write.fsync"])] = {
            "probability": round(rng.uniform(0.05, 0.3), 3)
        }
    if rng.random() < 0.7:
        points["monitor.refresh"] = {
            "probability": round(rng.uniform(0.2, 0.6), 3)
        }
    return faults.FaultPlan(points, seed=seed), points


def run_round(seed: int) -> dict:
    """One seeded plan against one fresh tenant; returns the verdict."""
    import repro.faults as faults
    from repro.service.server import create_server
    from repro.store import ArtifactStore, Registry, create_tenant

    failures: list[str] = []
    statuses: dict[str, int] = {}

    def note(status: int, allowed=ALLOWED_STATUSES, what: str = "") -> None:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        if status == 500:
            failures.append(f"500 on {what}")
        elif status not in allowed:
            failures.append(f"unexpected {status} on {what}")

    with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
        store = ArtifactStore(tmp)
        create_tenant(store, "t", make_lewis()).close()
        registry = Registry(store, background=True)
        server = create_server(registry=registry, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        live = {}
        try:
            # fault-free reference: the cohort answer that every
            # non-degraded 200 must reproduce bit for bit
            status, body = http(
                base,
                "/v1/t/recourse/batch",
                {"indices": list(range(6)), "actionable": ["a", "b"],
                 "alpha": 0.6},
            )
            assert status == 200, f"reference solve failed: {status}"
            reference = body["result"]["recourses"]

            plan, spec = build_plan(seed)
            acked = attempted = 0
            with faults.plan(plan):
                status, _ = http(
                    base,
                    "/v1/t/monitors",
                    {
                        "kind": "score",
                        "params": {"attribute": "a", "value": 2, "baseline": 0},
                        "threshold": 0.05,
                    },
                )
                note(status, what="monitor register")

                # the probe: same cohort under faults, maybe a deadline
                rng = random.Random(seed ^ 0x5EED)
                headers = (
                    {"X-Repro-Deadline-Ms": "30000"}
                    if rng.random() < 0.5
                    else None
                )
                status, body = http(
                    base,
                    "/v1/t/recourse/batch",
                    {"indices": list(range(6)), "actionable": ["a", "b"],
                     "alpha": 0.6},
                    headers=headers,
                )
                note(status, what="recourse probe")
                if status == 200:
                    if body.get("degraded"):
                        if not body.get("degraded_reason"):
                            failures.append("degraded 200 without a reason")
                    elif body["result"]["recourses"] != reference:
                        failures.append(
                            "non-degraded 200 differs from fault-free answer"
                        )

                for i in range(UPDATES_PER_ROUND):
                    attempted += 1
                    status, _ = http(
                        base,
                        "/v1/t/update",
                        {"insert": [{"a": i % 3, "b": (i + 1) % 3, "c": 0}]},
                    )
                    note(status, what=f"update {i}")
                    if status == 200:
                        acked += 1

                for path in ("/healthz", "/readyz", "/v1/t/health"):
                    status, _ = http(base, path)
                    note(status, what=f"GET {path}")
                counts = plan.counts()

            # post-fault live state (plan gone; reads must work)
            status, body = http(base, "/v1/t/health")
            if status == 200:
                live = {
                    "fingerprint": body.get("fingerprint"),
                    "table_version": body.get("table_version"),
                    "n_rows": body.get("n_rows"),
                }
            else:
                note(status, allowed={503}, what="final health")
        except socket.timeout:
            failures.append("request deadlock (timeout)")
            counts, acked, attempted, spec = {}, 0, 0, {}
        finally:
            server.shutdown()
            server.server_close()
            server.monitors.close()
            registry.close(checkpoint=False)

        # -- recovery, faults gone: every ack must have survived --------
        recovery = Registry(store)
        try:
            session = recovery.get("t")
            inserted = session.lewis.data.n_rows - 120
            if inserted < acked:
                failures.append(
                    f"lost acknowledged updates: {inserted} < {acked}"
                )
            if inserted > attempted:
                failures.append(
                    f"phantom updates: {inserted} > {attempted} attempted"
                )
            fsync_fired = (
                counts.get("wal.append.fsync", {}).get("fired", 0) > 0
            )
            if live and not fsync_fired:
                # no ack-window fault: recovery must be bit-identical
                if (
                    session.fingerprint != live["fingerprint"]
                    or session.table_version != live["table_version"]
                ):
                    failures.append("recovered state differs from live state")
            recovered = {
                "n_rows": int(session.lewis.data.n_rows),
                "table_version": int(session.table_version),
            }
        except Exception as exc:  # noqa: BLE001 - recovery must not raise
            failures.append(f"recovery failed: {type(exc).__name__}: {exc}")
            recovered = None
        finally:
            recovery.close(checkpoint=False)

    return {
        "seed": seed,
        "plan": spec,
        "fault_counts": counts,
        "statuses": statuses,
        "acked_updates": acked,
        "attempted_updates": attempted,
        "recovered": recovered,
        "failures": failures,
        "ok": not failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="50-plan matrix; exit 1 on any containment violation (CI gate)",
    )
    parser.add_argument(
        "--plans", type=int, default=None,
        help="number of seeded fault plans (default: 50 smoke, 120 full)",
    )
    parser.add_argument("--seed", type=int, default=0, help="first plan seed")
    args = parser.parse_args(argv)
    plans = args.plans or (50 if args.smoke else 120)

    started = time.perf_counter()
    rounds = []
    for k in range(plans):
        verdict = run_round(args.seed + k)
        rounds.append(verdict)
        mark = "ok" if verdict["ok"] else "FAIL " + "; ".join(verdict["failures"])
        print(f"[{k + 1:3d}/{plans}] seed={verdict['seed']:<4d} {mark}")

    total_fired: dict[str, int] = {}
    for verdict in rounds:
        for point, c in verdict["fault_counts"].items():
            total_fired[point] = total_fired.get(point, 0) + c["fired"]
    failed = [r for r in rounds if not r["ok"]]
    report = {
        "plans": plans,
        "elapsed_s": round(time.perf_counter() - started, 2),
        "faults_fired_total": total_fired,
        "failed_rounds": len(failed),
        "failures": [
            {"seed": r["seed"], "failures": r["failures"]} for r in failed
        ],
        "rounds": rounds,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "chaos_smoke.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\n{plans} plans, {sum(total_fired.values())} faults fired "
        f"across {len(total_fired)} points, {len(failed)} violations "
        f"-> {out}"
    )
    if failed:
        for r in failed:
            print(f"  seed {r['seed']}: {'; '.join(r['failures'])}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
