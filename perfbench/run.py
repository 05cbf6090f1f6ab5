"""End-to-end HTTP benchmark of the LEWIS explanation service.

    python3 perfbench/run.py --workload explain_mix --seed 1 --seconds 12 --trace 0

Starts the real server (``repro serve --store``) in its own process on a
registry tenant built from seeded synthetic ``adult`` (20k rows, 6,000-row
population, 15-tree random forest), drives one seeded closed-loop
workload over HTTP from this process, checks the answers, and prints one
JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a
separate traced server and reports the per-layer metrics (see
``README.md`` for the layer -> end-to-end metric -> workload map).  A
full result file, stamped with provenance, goes to
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from check import canonical
from launcher import TENANT
from stats import check_metric_names, median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

WORKLOADS = ("explain_mix", "recourse_audit", "update_stream")
#: fresh-store set-ups per untraced run; setup_s is their median
SETUPS = 3
#: kill/relaunch cycles after the window; restore_s is their median
RESTARTS = 3
#: WAL records written after the post-window checkpoint and replayed by
#: every restore (fixed, so restore work is identical across runs)
TAIL_DELTAS = 16
#: answer-check sampling: (probability per request, cap) per workload
SAMPLING = {"explain_mix": (0.02, 40), "recourse_audit": (0.1, 24)}
BOOT_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# server processes


class Server:
    """One ``launcher.py serve`` process, its log and its base URL.

    Every server registers itself in ``started`` so the caller can stop
    all of them however the run ends.
    """

    def __init__(self, started: list, store: Path, log: Path,
                 trace: Path | None = None, trace_from_start: bool = False):
        self.started, self.store, self.log, self.trace = started, store, log, trace
        cmd = [sys.executable, "-u", str(HERE / "launcher.py"), "serve",
               "--store", str(store)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
            if trace_from_start:
                cmd.append("--trace-from-start")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )
        started.append(self)
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        pattern = re.compile(rb"listening on http://([\d.]+):(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(f"server did not start; see {self.log}")

    def wait_tenant(self) -> None:
        """Block until the tenant answers ``/v1/<tenant>/health``."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if self.get(f"/v1/{TENANT}/health")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("tenant never became ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def signal(self, sig) -> None:
        self.proc.send_signal(sig)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _send(self, method: str, path: str, body: bytes | None):
        """One request on its own connection, as the program's own
        (``urllib``) clients do.  A kept-alive connection would instead
        stall ~40 ms on each small response: the handler writes headers
        and body in two sends without disabling Nagle's algorithm, and
        the client delays its ACK."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str):
        return self._send("GET", path, None)

    def post(self, path: str, payload: dict):
        return self._send("POST", path, json.dumps(payload).encode())

    def dump_spans(self) -> list:
        """SIGUSR2 the traced server and read the spans it writes."""
        self.trace.unlink(missing_ok=True)
        self.signal(signal.SIGUSR2)
        deadline = time.monotonic() + 60
        while not self.trace.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.01)
        return json.loads(self.trace.read_text())


# ---------------------------------------------------------------------------
# closed-loop drivers


@dataclass
class Record:
    route: str
    rtt_s: float
    ok: bool
    cached: bool = False
    queue_ms: float = 0.0
    nbytes: int = 0
    request_id: str | None = None


@dataclass
class Checks:
    """Correctness checks made outside the timed window, and failures."""

    made: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str = "") -> None:
        self.made += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Window:
    """Everything one timed window produced."""

    seconds: float = 0.0
    records: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    purged: list = field(default_factory=list)
    rows_acked: int = 0


def _call(server: Server, route: str, body: dict, window: Window, n_rows: int | None):
    """One timed request; returns its result, or None when it failed."""
    started = time.perf_counter()
    try:
        status, raw = server.post(f"/v1/{TENANT}/{route}", body)
    except (OSError, http.client.HTTPException):
        status, raw = 0, b""
    rtt = time.perf_counter() - started
    try:
        payload = json.loads(raw) if status == 200 else {}
    except ValueError:
        payload = {}
    result = payload.get("result")
    ok = isinstance(result, dict)
    if ok and route == "update":
        # the population is balanced: every ack must leave it unchanged
        ok = result.get("n_rows") == n_rows
        if ok:
            window.purged.append(result["purged"])
            window.rows_acked += result["inserted"] + result["deleted"]
    if not ok:
        print(f"{route} -> {status}: {raw[:300]!r}", file=sys.stderr)
    window.records.append(
        Record(route, rtt, ok, cached=bool(payload.get("cached")),
               queue_ms=float(payload.get("queue_ms", 0.0)), nbytes=len(raw),
               request_id=payload.get("request_id"))
    )
    return result if ok else None


def _loop(server, requests, stop_at, window, sampler=None, n_rows=None):
    """Closed loop: send the next request only after the previous answer."""
    rng, rate, cap = sampler or (None, 0.0, 0)
    for route, body in requests:
        if time.perf_counter() >= stop_at:
            break
        result = _call(server, route, body, window, n_rows)
        if (result is not None and rng is not None and rng.random() < rate
                and len(window.samples) < cap):
            window.samples.append((route, body, result))


def run_window(server: Server, workload: str, seed: int, seconds: float, info: dict,
               salt: str = "") -> Window:
    """Drive ``workload`` for ``seconds`` against ``server``.

    ``salt`` derives a second request stream from the same seed (the
    traced window must not replay the untraced window's requests).
    """
    stream_seed = f"{seed}{salt}"
    stop_at = time.perf_counter() + seconds
    clients = []  # (window part, loop kwargs) per client thread
    if workload == "explain_mix":
        for client in range(2):
            clients.append((Window(), {
                "requests": gen.explain_mix(stream_seed, client, info),
                "sampler": (gen.stream_rng(stream_seed, f"sample:{client}"),
                            *SAMPLING[workload]),
            }))
    elif workload == "recourse_audit":
        clients.append((Window(), {
            "requests": gen.recourse_audit(stream_seed, 0, info),
            "sampler": (gen.stream_rng(stream_seed, "sample:0"), *SAMPLING[workload]),
        }))
    else:
        # writer and reader take turns on one loop (see gen.update_stream)
        clients.append((Window(), {
            "requests": gen.update_stream(stream_seed, info), "n_rows": info["n_rows"],
        }))
    errors = []

    def client(part, kwargs):
        try:
            _loop(server, stop_at=stop_at, window=part, **kwargs)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=c) for c in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    window = Window(seconds=time.perf_counter() - started)
    for part, _kwargs in clients:
        window.records += part.records
        window.samples += part.samples
        window.purged += part.purged
        window.rows_acked += part.rows_acked
    return window


# ---------------------------------------------------------------------------
# set-up, restore


def setup_once(started: list, work: Path, tag: str, workload: str,
               trace: Path | None = None) -> tuple[Server, dict, float]:
    """Fresh store -> tenant built -> server ready -> warmed up."""
    store = work / f"store-{tag}"
    info_path = work / f"tenant-{tag}.json"
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "launcher.py"), "build", "--store", str(store),
         "--info", str(info_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=BOOT_TIMEOUT_S,
    )
    info = json.loads(info_path.read_text())
    server = Server(started, store, work / f"server-{tag}.log", trace=trace)
    try:
        server.wait_tenant()
        if workload == "update_stream":
            # one standing NEC score monitor, refreshed after every update
            status, raw = server.post(f"/v1/{TENANT}/monitors", {
                "kind": "score",
                "params": {"attribute": "edu", "value": "masters+",
                           "baseline": "HS-grad"},
            })
            if status != 200:
                raise RuntimeError(f"monitor registration failed: {raw[:200]!r}")
        for route, body in gen.warmup(info, workload):
            status, raw = server.post(f"/v1/{TENANT}/{route}", body)
            if status != 200:
                raise RuntimeError(f"warm-up {route} failed: {raw[:200]!r}")
    except BaseException:
        server.kill()
        raise
    return server, info, time.perf_counter() - t0


def probe_answers(server: Server, info: dict,
                  answers: bool = True) -> tuple[str, list[str]]:
    """(state digest, canonical probe answers) of the live tenant."""
    status, raw = server.get(f"/v1/{TENANT}/health?digest=1")
    digest = json.loads(raw)["state_digest"] if status == 200 else None
    if not answers:
        return digest, []
    answers = []
    for route, body in gen.probes(info):
        status, raw = server.post(f"/v1/{TENANT}/{route}", body)
        answers.append(
            canonical(route, json.loads(raw)["result"]) if status == 200 else None
        )
    return digest, answers


def write_tail(server: Server, seed: int, info: dict, checks: Checks) -> None:
    """Checkpoint, then write the fixed-length WAL tail every restore replays."""
    status, _raw = server.post(f"/v1/registry/{TENANT}/snapshot", {})
    checks.add(status == 200, "checkpoint")
    tail = gen.update_writer(seed, info, stream="tail")
    for _ in range(TAIL_DELTAS):
        route, body = next(tail)
        status, _raw = server.post(f"/v1/{TENANT}/{route}", body)
        checks.add(status == 200, "WAL tail update")


def restore_cycles(server: Server, work: Path, info: dict, cycles: int,
                   checks: Checks, trace: Path | None = None):
    """SIGKILL + relaunch ``cycles`` times; returns (restore times, spans).

    Every restore must reproduce the pre-kill state digest; the first
    must also reproduce the pre-kill probe answers.
    """
    before = probe_answers(server, info)
    server.kill()
    times, spans = [], None
    for cycle in range(cycles):
        started = time.perf_counter()
        server = Server(server.started, server.store, work / f"restore-{cycle}.log",
                        trace=trace, trace_from_start=trace is not None)
        try:
            server.wait_tenant()
            times.append(time.perf_counter() - started)
            if trace is not None:
                spans = server.dump_spans()
            digest, answers = probe_answers(server, info, answers=cycle == 0)
            checks.add(digest is not None and digest == before[0],
                       f"restore {cycle}: state digest")
            for i, (after, was) in enumerate(zip(answers, before[1])):
                checks.add(after is not None and after == was,
                           f"restore {cycle}: probe {i}")
        finally:
            server.kill()
    return times, spans


# ---------------------------------------------------------------------------
# metrics


def scrape(server: Server) -> dict[str, float]:
    """``/metrics`` as ``{series: value}`` (Prometheus text format)."""
    status, raw = server.get("/metrics")
    if status != 200:
        raise RuntimeError("/metrics scrape failed")
    out = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def delta(before: dict, after: dict, name: str, label: str = "") -> float:
    """Summed change of every ``name`` series whose labels contain ``label``."""
    total = 0.0
    for series, value in after.items():
        if (series == name or series.startswith(name + "{")) and label in series:
            total += value - before.get(series, 0.0)
    return total


def route_summary(window: Window) -> dict:
    routes: dict[str, list[float]] = {}
    for r in window.records:
        if r.ok:
            key = "cached" if r.cached else r.route
            routes.setdefault(key, []).append(r.rtt_s * 1e3)
    return {k: {"n": len(v), "p50_ms": median(v)} for k, v in sorted(routes.items())}


def end_to_end(window: Window, setup: list[float], rss_mb: float) -> dict:
    ok = [r.rtt_s * 1e3 for r in window.records if r.ok]
    return {
        "setup_s": (median(setup), "s"),
        "throughput_rps": (len(ok) / window.seconds, "1/s"),
        "latency_p50_ms": (median(ok), "ms"),
        "latency_p90_ms": (tail_percentile(ok, 90), "ms"),
        "server_rss_mb": (rss_mb, "MB"),
    }


SELF_TIME_LAYERS = (
    "service.server", "service.session", "service.cache", "core.lewis",
    "estimation.engine", "core.scores", "estimation.outcome_model",
    "estimation.logit", "models.pipeline", "core.recourse", "core.recourse_kernel",
    "store.wal", "monitor.monitors", "data.table",
)


def per_layer(window: Window, spans: list, before: dict, after: dict,
              restore_spans: list, untraced_rps: float) -> dict:
    from spans import layer_of, self_times

    timed = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for entry in timed:
        by_name.setdefault(entry[0], []).append(entry)

    def p50(name):
        return median([e[1] * 1e3 for e in by_name.get(name, [])])

    handle_ms = {e[3]: e[1] * 1e3 for e in by_name.get("service.session:ExplainerSession.handle", [])}
    overhead = [r.rtt_s * 1e3 - handle_ms[r.request_id] for r in window.records
                if r.ok and r.request_id in handle_ms]
    misses = [r.queue_ms for r in window.records if r.ok and not r.cached
              and r.route != "update"]
    done = sum(r.ok for r in window.records)
    hits = delta(before, after, "repro_cache_hits_total", 'cache="result"')
    lookups = hits + delta(before, after, "repro_cache_misses_total", 'cache="result"')
    tensor_calls = len(by_name.get("estimation.engine:ContingencyEngine.tensor", []))
    builds = delta(before, after, "repro_engine_tensor_builds_total")
    batches = delta(before, after, "repro_batcher_batches_total")
    predicts = by_name.get("models.pipeline:TableModel.predict_codes", [])
    cohort_rows = sum(
        e[4] for e in by_name.get("core.recourse:RecourseSolver.solve_batch", [])
    )
    solves = delta(before, after, "repro_solver_signature_solves_total")
    wal_bytes = delta(before, after, "repro_wal_bytes")
    replayed = self_times(restore_spans)
    metrics = {
        "server.overhead_ms_p50": (median(overhead), "ms"),
        "server.response_kb_p50": (median([r.nbytes / 1024 for r in window.records if r.ok]), "KiB"),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "cache.purged_per_update": (
            sum(window.purged) / len(window.purged) if window.purged else 0.0, "count"),
        "batcher.queue_wait_ms_p50": (median(misses), "ms"),
        "batcher.queue_wait_ms_p90": (percentile(misses, 90) if misses else 0.0, "ms"),
        "batcher.mean_batch": (
            delta(before, after, "repro_batcher_requests_total") / batches if batches else 0.0,
            "count"),
        "batcher.shed": (delta(before, after, "repro_batcher_shed_total"), "count"),
    }
    for op in ("explain_global", "explain_context", "explain_local_batch",
               "scores_batch", "recourse_audit", "apply_delta"):
        metrics[f"lewis.{op}_ms_p50"] = (p50(f"core.lewis:Lewis.{op}"), "ms")
    metrics.update({
        "engine.tensor_calls": (tensor_calls, "count"),
        "engine.tensor_builds": (builds, "count"),
        "engine.tensor_hit_ratio": (1 - builds / tensor_calls if tensor_calls else 0.0, "ratio"),
        "engine.tensor_build_ms": (
            delta(before, after, "repro_engine_tensor_build_seconds_sum") * 1e3, "ms"),
        "engine.apply_delta_ms_p50": (p50("estimation.engine:ContingencyEngine.apply_delta"), "ms"),
        "scores.scores_batch_ms_p50": (p50("core.scores:ScoreEstimator.scores_batch"), "ms"),
        "scores.local_score_arrays_ms_p50": (
            p50("core.scores:ScoreEstimator.local_score_arrays"), "ms"),
        "local_model.fits": (delta(before, after, "repro_local_model_fit_seconds_count"), "count"),
        "local_model.fit_ms_total": (
            delta(before, after, "repro_local_model_fit_seconds_sum") * 1e3, "ms"),
        "blackbox.predict_calls": (len(predicts), "count"),
        "blackbox.rows_predicted": (sum(e[4] or 0 for e in predicts), "count"),
        "blackbox.predict_ms_total": (sum(e[1] for e in predicts) * 1e3, "ms"),
        "recourse.solve_batch_ms_p50": (p50("core.recourse:RecourseSolver.solve_batch"), "ms"),
        "recourse.signature_solves": (solves, "count"),
        "recourse.search_nodes": (delta(before, after, "repro_solver_search_nodes_total"), "count"),
        "recourse.memo_hit_ratio": (1 - solves / cohort_rows if cohort_rows else 0.0, "ratio"),
        "wal.append_ms_p50": (p50("store.wal:DeltaLog.append"), "ms"),
        "wal.fsyncs": (delta(before, after, "repro_wal_fsync_seconds_count"), "count"),
        "wal.bytes_per_row": (wal_bytes / window.rows_acked if window.rows_acked else 0.0, "B"),
        "restore.replay_records": (
            sum(e[4] or 0 for e in replayed if e[0] == "store.wal:DeltaLog.replay"), "count"),
        "restore.restore_session_ms": (
            median([e[1] * 1e3 for e in replayed if e[0] == "store.snapshot:restore_session"]),
            "ms"),
        "monitor.refreshes": (delta(before, after, "repro_monitor_refreshes_total"), "count"),
        "monitor.refresh_ms_p50": (p50("monitor.monitors:MonitorSet._refresh"), "ms"),
        "table.encode_rows_ms_p50": (p50("data.table:Table.encode_rows"), "ms"),
        "trace.overhead_share": (
            1 - (done / window.seconds) / untraced_rps if untraced_rps else 0.0, "ratio"),
    })
    self_ms = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for name, _dur, own, _rid, _size in timed:
        layer = layer_of(name)
        if layer in self_ms:
            self_ms[layer] += own * 1e3
    for layer, total in self_ms.items():
        metrics[f"self_ms_per_req.{layer}"] = (total / done if done else 0.0, "ms")
    return metrics


# ---------------------------------------------------------------------------
# runs


@dataclass
class Outcome:
    metrics: dict
    window: Window
    checks: Checks
    extra: dict


def answer_check(workload: str, window: Window, checks: Checks) -> int:
    """Check the sampled answers; returns how many were not bit-identical."""
    if workload not in SAMPLING:
        return 0
    from check import reference_mismatches

    mismatches, inexact = reference_mismatches(window.samples)
    checks.made += len(window.samples)
    checks.failed += mismatches
    return inexact - mismatches


def untraced_run(args, work: Path, started: list) -> Outcome:
    setups, server = [], None
    for i in range(SETUPS):
        if server is not None:
            server.kill()
        server, info, seconds = setup_once(started, work, str(i), args.workload)
        setups.append(seconds)
    before = scrape(server)
    window = run_window(server, args.workload, args.seed, args.seconds, info)
    after = scrape(server)
    rss_mb = server.peak_rss_mb()
    checks = Checks()
    if args.workload == "update_stream":
        write_tail(server, args.seed, info, checks)
    restores, _spans = restore_cycles(server, work, info, RESTARTS, checks)
    within_ulps = answer_check(args.workload, window, checks)
    extra = {
        # measured and checked every run, but not a gated metric: its
        # run-to-run spread on a shared host reached 0.27-0.31 of its median
        "restore_s": median(restores),
        "routes": route_summary(window),
        "answers_within_ulps_not_identical": within_ulps,
        "update_rows_per_s": window.rows_acked / window.seconds,
        "setup_s_all": setups,
        "restore_s_all": restores,
        "counters": {k: after[k] - before.get(k, 0.0) for k in after
                     if not k.split("{")[0].endswith("_bucket")},
    }
    return Outcome(end_to_end(window, setups, rss_mb), window, checks, extra)


def traced_run(args, work: Path, started: list) -> Outcome:
    """Untraced then traced half-windows on one traced server, then a traced restore."""
    server, info, _seconds = setup_once(started, work, "traced", args.workload,
                                        trace=work / "spans.json")
    plain = run_window(server, args.workload, args.seed, args.seconds / 2, info)
    untraced_rps = sum(r.ok for r in plain.records) / plain.seconds
    server.signal(signal.SIGUSR1)
    before = scrape(server)
    window = run_window(server, args.workload, args.seed, args.seconds / 2, info,
                        salt=":traced")
    after = scrape(server)
    spans = server.dump_spans()
    checks = Checks()
    if args.workload == "update_stream":
        write_tail(server, args.seed, info, checks)
    _restores, restore_spans = restore_cycles(
        server, work, info, 1, checks, trace=work / "restore-spans.json"
    )
    answer_check(args.workload, window, checks)
    metrics = per_layer(window, spans, before, after, restore_spans, untraced_rps)
    window.records += plain.records
    return Outcome(metrics, window, checks,
                   {"routes": route_summary(window), "spans": len(spans)})


def provenance(args) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from conftest import result_envelope

    return {**result_envelope(), "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops the servers it started (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started: list[Server] = []
    try:
        outcome = (traced_run if args.trace else untraced_run)(args, work, started)
    finally:
        for server in started:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # succeeds only once no other run is using it
        except OSError:
            pass
    records = outcome.window.records
    attempted = len(records) + outcome.checks.made
    failed = sum(not r.ok for r in records) + outcome.checks.failed
    check_metric_names(outcome.metrics)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome.metrics.items()}
    outcome.extra["error_share"] = failed / attempted
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(
        {"provenance": provenance(args), "metrics": metrics, **outcome.extra},
        indent=2, sort_keys=True, default=str) + "\n")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(f"{'error_share':40s} {failed / attempted:14.4f} ratio")
    if "restore_s" in outcome.extra:
        print(f"{'restore_s':40s} {outcome.extra['restore_s']:14.4f} s")
    for route, summary in outcome.extra["routes"].items():
        print(f"{route + '_p50_ms':40s} {summary['p50_ms']:14.4f} ms (n={summary['n']})")
    print(f"result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
