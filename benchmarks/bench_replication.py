"""Replication fault matrix: ship damage, leader kill, promotion, fencing.

Each round builds a three-node cluster in one process — a leader and two
followers over real HTTP — then walks it through the failure story the
replicated tier promises to survive, under a seeded deterministic fault
plan over the shipping path (``repl.ship.{drop,dup,reorder}``,
``repl.apply.crash``):

1. **Damaged shipping converges.**  Writes land on the leader while the
   plan drops, duplicates and reorders shipped batches and crashes
   appliers mid-apply; both followers must still converge to the
   leader's exact engine state digest.
2. **Kill the leader mid-stream.**  Two acked writes are deliberately
   left unshipped, the leader fail-stops (disk survives), and follower 1
   is promoted with ``catchup_store`` pointed at the dead leader's
   store: the unshipped tail must be recovered — zero acked-write loss.
3. **Fence the deposed epoch.**  A batch stamped with the dead leader's
   epoch must be refused by a replica that has seen the new epoch.
4. **The history serializes.**  Every client-visible read and write is
   recorded into a ``tests/history_checker.py`` ``HistoryRecorder``, and
   the black-box checker must find an admissible serialization: no forks,
   no lost or phantom acked writes, monotonic and pinned reads honored,
   bit-identical converged finals.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_replication.py           # 12 rounds
    PYTHONPATH=src python benchmarks/bench_replication.py --smoke   # 4, CI gate

``--smoke`` exits 1 on any violation.  Results land in
``benchmarks/results/replication_smoke.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.bench_chaos import http, make_lewis  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BASE_ROWS = 120
WRITES_UNDER_FAULTS = 10
UNSHIPPED_WRITES = 2  # acked by the doomed leader, recovered at promotion


def start_server(server):
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def stop_server(server):
    server.shutdown()
    server.server_close()
    if server.replication is not None:
        server.replication.stop()
    server.monitors.close()


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def build_plan(seed: int):
    """Seeded damage over the shipping path; deterministic per seed."""
    import repro.faults as faults

    rng = random.Random(seed)
    points = {}
    for point in rng.sample(
        ["repl.ship.drop", "repl.ship.dup", "repl.ship.reorder"],
        k=rng.choice([1, 2, 3]),
    ):
        points[point] = {"probability": round(rng.uniform(0.2, 0.5), 3)}
    if rng.random() < 0.7:
        points["repl.apply.crash"] = {
            "probability": round(rng.uniform(0.1, 0.25), 3)
        }
    return faults.FaultPlan(points, seed=seed), points


def final_state(base: str) -> dict | None:
    """One replica's converged fingerprint for the checker's finals."""
    status, body = http(base, "/v1/t/health?digest=1")
    if status != 200:
        return None
    return {
        "state_token": body["state_token"],
        "table_version": body["table_version"],
        "last_seq": body["last_seq"],
        "digest": body["state_digest"],
        "n_rows": body["n_rows"],
    }


def run_round(seed: int) -> dict:
    import repro.faults as faults
    from repro.replication import FencedError
    from repro.service.server import create_server
    from repro.store import ArtifactStore, Registry, create_tenant
    from tests.history_checker import HistoryRecorder, check_history

    failures: list[str] = []
    recorder = HistoryRecorder()
    acked_rows = 0

    def write(base: str, replica: str, row: dict) -> tuple[int, dict]:
        nonlocal acked_rows
        status, body = http(base, "/v1/t/update", {"insert": [row]})
        ok = status == 200
        recorder.record_write(
            "writer",
            replica,
            ok,
            seq=body.get("result", {}).get("wal_seq") if ok else None,
            version=body.get("table_version") if ok else None,
            token=body.get("state_token") if ok else None,
            request_id=body.get("request_id"),
        )
        if ok:
            acked_rows += 1
        elif status not in (429, 503, 504):
            failures.append(f"write on {replica} answered {status}")
        return status, body

    def read(base: str, replica: str, client: str, min_state=None):
        headers = {"X-Repro-Min-State": min_state} if min_state else None
        status, body = http(
            base, "/v1/t/explain/global", {}, headers=headers
        )
        recorder.record_read(
            client,
            replica,
            status == 200,
            version=body.get("table_version") if status == 200 else None,
            token=body.get("state_token") if status == 200 else None,
            min_state=min_state,
        )
        if status not in (200, 503):
            failures.append(f"read on {replica} answered {status}")
        return status

    with tempfile.TemporaryDirectory(prefix="repl-bench-") as tmp:
        tmp = Path(tmp)
        leader_store = ArtifactStore(tmp / "leader")
        create_tenant(leader_store, "t", make_lewis(rows=BASE_ROWS)).close()
        leader = create_server(registry=Registry(leader_store), port=0)
        leader_base = start_server(leader)
        followers = []
        for name in ("f1", "f2"):
            server = create_server(
                registry=Registry(tmp / name),
                port=0,
                follow=leader_base,
            )
            followers.append((name, server, start_server(server)))

        status, body = http(leader_base, "/v1/t/health")
        initial = {"version": body["table_version"], "token": body["state_token"]}

        plan, spec = build_plan(seed)
        rng = random.Random(seed ^ 0xF0110)
        try:
            # -- phase 1: writes under shipping damage ----------------------
            last_token = None
            with faults.plan(plan):
                for i in range(WRITES_UNDER_FAULTS):
                    status, body = write(
                        leader_base, "leader", {"a": i % 3, "b": (i + 1) % 3, "c": 0}
                    )
                    if status == 200:
                        last_token = body["state_token"]
                    name, _server, base = followers[rng.randrange(2)]
                    read(base, name, f"reader-{name}")
                    if last_token and rng.random() < 0.5:
                        # read-your-writes: pin a follower to the freshest ack
                        read(base, name, "writer", min_state=last_token)
                    # space writes out so each ships in its own batch and
                    # the ship faults get distinct batches to damage
                    time.sleep(0.03)
                counts = plan.counts()

            def caught_up(base):
                status, body = http(base, "/v1/t/health")
                return status == 200 and body.get("last_seq") == acked_rows

            for name, _server, base in followers:
                if not wait_until(lambda b=base: caught_up(b)):
                    failures.append(f"{name} never converged under faults")

            # -- phase 2: kill the leader with an unshipped tail ------------
            f1_name, f1_server, f1_base = followers[0]
            f2_name, f2_server, f2_base = followers[1]
            f1_server.replication.stop()
            f2_server.replication.stop()
            for i in range(UNSHIPPED_WRITES):
                write(leader_base, "leader", {"a": i % 3, "b": 2, "c": 1})
            stop_server(leader)
            leader.registry.close(checkpoint=False)  # fail-stop: disk survives

            status, body = http(
                f1_base,
                "/v1/replication/promote",
                {"catchup_store": str(tmp / "leader"), "reason": f"bench seed {seed}"},
            )
            if status != 200:
                failures.append(f"promotion failed: {status} {body}")
            else:
                if body["epoch"] != 1:
                    failures.append(f"promotion epoch {body['epoch']} != 1")
                if body["caught_up"].get("t") != UNSHIPPED_WRITES:
                    failures.append(
                        "catch-up recovered "
                        f"{body['caught_up']} of {UNSHIPPED_WRITES} unshipped writes"
                    )

            # -- phase 3: fence the deposed epoch ---------------------------
            stale = {"tenant": "t", "epoch": 0, "records": [], "last_seq": 0}
            try:
                f1_server.replication.ingest_batch("t", stale)
                failures.append("promoted leader accepted a deposed-epoch batch")
            except FencedError:
                pass

            # -- phase 4: re-form the cluster around the new leader ---------
            status, body = http(
                f2_base, "/v1/replication/retarget", {"leader_url": f1_base}
            )
            if status != 200:
                failures.append(f"retarget failed: {status} {body}")
            f2_server.replication.ensure_tailer("t")
            write(f1_base, f1_name, {"a": 1, "b": 1, "c": 2})
            read(f1_base, f1_name, "writer")
            if not wait_until(lambda: caught_up(f2_base)):
                failures.append("f2 never converged on the promoted leader")
            read(f2_base, f2_name, f"reader-{f2_name}")

            # -- verdict: admissible serialization + converged finals -------
            finals = {}
            for name, base in ((f1_name, f1_base), (f2_name, f2_base)):
                state = final_state(base)
                if state is None:
                    failures.append(f"{name} unhealthy at verdict time")
                else:
                    finals[name] = state
                    if state["n_rows"] != BASE_ROWS + acked_rows:
                        failures.append(
                            f"{name} holds {state['n_rows']} rows, expected "
                            f"{BASE_ROWS + acked_rows}"
                        )
            verdict = check_history(
                recorder.events(), finals=finals, initial=initial
            )
            failures.extend(verdict["violations"])
        finally:
            for _name, server, _base in followers:
                try:
                    stop_server(server)
                except Exception:  # noqa: BLE001 - teardown is best-effort
                    pass
                server.registry.close(checkpoint=False)

    return {
        "seed": seed,
        "plan": spec,
        "fault_counts": counts,
        "acked_writes": acked_rows,
        "checker": verdict["stats"],
        "serialization_length": len(verdict["serialization"]),
        "failures": failures,
        "ok": not failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="4-round matrix; exit 1 on any violation (CI gate)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="number of seeded rounds (default: 4 smoke, 12 full)",
    )
    parser.add_argument("--seed", type=int, default=0, help="first round seed")
    args = parser.parse_args(argv)
    rounds_wanted = args.rounds or (4 if args.smoke else 12)

    started = time.perf_counter()
    rounds = []
    for k in range(rounds_wanted):
        verdict = run_round(args.seed + k)
        rounds.append(verdict)
        mark = "ok" if verdict["ok"] else "FAIL " + "; ".join(verdict["failures"])
        print(f"[{k + 1:3d}/{rounds_wanted}] seed={verdict['seed']:<4d} {mark}")

    total_fired: dict[str, int] = {}
    for verdict in rounds:
        for point, c in verdict["fault_counts"].items():
            total_fired[point] = total_fired.get(point, 0) + c["fired"]
    failed = [r for r in rounds if not r["ok"]]
    report = {
        "rounds": rounds_wanted,
        "elapsed_s": round(time.perf_counter() - started, 2),
        "faults_fired_total": total_fired,
        "failed_rounds": len(failed),
        "failures": [
            {"seed": r["seed"], "failures": r["failures"]} for r in failed
        ],
        "results": rounds,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "replication_smoke.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\n{rounds_wanted} rounds, {sum(total_fired.values())} ship/apply "
        f"faults fired, {len(failed)} violations -> {out}"
    )
    if failed:
        for r in failed:
            print(f"  seed {r['seed']}: {'; '.join(r['failures'])}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
