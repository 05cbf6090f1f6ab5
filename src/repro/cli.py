"""Command-line interface: ``python -m repro.cli <command> ...``.

The subcommands mirror the library's main entry points:

* ``explain``  — global or contextual explanation on a dataset,
* ``local``    — local explanation for one row,
* ``recourse`` — minimal-cost recourse for one row,
* ``audit``    — counterfactual-fairness audit of protected attributes,
* ``serve``    — start the JSON-over-HTTP explanation service; with
  ``--store DIR`` it serves every tenant in a durable registry,
* ``snapshot`` — train + explain once, persist the warm session as a
  named tenant in an artifact store,
* ``restore``  — rebuild a tenant from snapshot + write-ahead log and
  verify its tensors against a fresh recount,
* ``registry`` — ``ls`` / ``add`` / ``rm`` tenants of a store,
* ``replicate`` — ``status`` / ``promote`` / ``retarget`` a replicated
  serving tier (``serve --follow URL`` starts a read-only follower),
* ``monitor``  — ``add`` / ``ls`` / ``rm`` / ``watch`` standing drift
  monitors on a *running* service over HTTP (long-poll alert stream).

Training commands build a black box on a fresh replica of the chosen
dataset; results print as plain-text charts (see :mod:`repro.report`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro import Lewis, __version__, fit_table_model, load_dataset, train_test_split
from repro.core.fairness import FairnessAuditor
from repro.data.registry import available_datasets
from repro.models.pipeline import MODEL_KINDS
from repro.report import (
    render_global,
    render_local,
    render_recourse,
    render_recourse_audit,
    render_scores_table,
    render_service_stats,
)
from repro.utils.exceptions import RecourseInfeasibleError


def _build_explainer(args) -> tuple:
    bundle = load_dataset(args.dataset, n_rows=args.rows, seed=args.seed)
    train, test = train_test_split(bundle.table, test_fraction=0.3, seed=args.seed)
    kind = args.model
    if bundle.positive_label is None and not kind.endswith("_regressor"):
        kind = "random_forest_regressor"
    model = fit_table_model(
        kind, train, bundle.feature_names, bundle.label, seed=args.seed
    )
    lewis = Lewis(
        model,
        data=test,
        graph=bundle.graph,
        positive_outcome=bundle.positive_label,
        threshold=0.5 if bundle.positive_label is None else None,
    )
    return bundle, model, lewis


def _parse_context(items: Sequence[str]) -> dict:
    context = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"context must be attr=value, got {item!r}")
        key, value = item.split("=", 1)
        context[key] = value
    return context


def cmd_explain(args) -> int:
    bundle, _model, lewis = _build_explainer(args)
    if args.context:
        context = _parse_context(args.context)
        explanation = lewis.explain_context(context)
        title = f"{args.dataset}: contextual explanation"
    else:
        explanation = lewis.explain_global()
        title = f"{args.dataset}: global explanation"
    if args.chart:
        print(render_global(explanation, kind=args.score, title=title))
    else:
        print(render_scores_table(explanation, title=title))
    return 0


def _cohort_indices(args, lewis) -> list[int] | None:
    """Resolve the ``--indices`` / ``--cohort`` cohort-mode selectors.

    ``--indices`` names explicit rows; ``--cohort N`` takes the first N
    rows of the requested outcome pool (negative rows by default for
    ``recourse``, via ``--negative`` for ``local``).  Returns ``None``
    when neither flag was given (single-row mode).
    """
    if getattr(args, "indices", None) is not None:
        return [int(i) for i in args.indices]
    if getattr(args, "cohort", None) is not None:
        if args.cohort < 1:
            raise SystemExit(f"--cohort must be >= 1, got {args.cohort}")
        negative = getattr(args, "negative", True)
        pool = lewis.negative_indices() if negative else lewis.positive_indices()
        return [int(i) for i in pool[: args.cohort]]
    return None


def cmd_local(args) -> int:
    bundle, _model, lewis = _build_explainer(args)
    cohort = _cohort_indices(args, lewis)
    if cohort is not None:
        if not cohort:
            print("no individual with the requested outcome", file=sys.stderr)
            return 1
        explanations = lewis.explain_local_batch(cohort)
        print(
            f"{args.dataset}: local explanations for {len(cohort)} rows "
            f"(vectorized cohort path)"
        )
        for index, explanation in zip(cohort, explanations):
            outcome = "positive" if explanation.outcome_positive else "negative"
            top = explanation.statements(top=1)
            detail = top[0] if top else "(no contrastive statement)"
            print(f"row {index:5d} [{outcome}]: {detail}")
        return 0
    index = args.index
    if index is None:
        pool = lewis.negative_indices() if args.negative else lewis.positive_indices()
        if len(pool) == 0:
            print("no individual with the requested outcome", file=sys.stderr)
            return 1
        index = int(pool[0])
    explanation = lewis.explain_local(index=index)
    print(render_local(explanation, title=f"{args.dataset}: local explanation (row {index})"))
    for sentence in explanation.statements(top=3):
        print(" ", sentence)
    return 0


def cmd_recourse(args) -> int:
    bundle, _model, lewis = _build_explainer(args)
    actionable = args.actionable or bundle.actionable
    if not actionable:
        print(f"{args.dataset} has no actionable attributes", file=sys.stderr)
        return 1
    mode = "anytime" if args.anytime else "exact"
    cohort = _cohort_indices(args, lewis)
    if cohort is not None:
        audit = lewis.recourse_audit(
            actionable,
            alpha=args.alpha,
            indices=cohort,
            mode=mode,
        )
        print(
            render_recourse_audit(
                audit,
                title=(
                    f"{args.dataset}: recourse audit over {len(cohort)} rows "
                    f"(deduplicated batch IP path)"
                ),
                solver=lewis.solver_stats(),
            )
        )
        return 0
    index = args.index
    if index is None:
        index = int(lewis.negative_indices()[0])
    try:
        recourse = lewis.recourse(
            index, actionable=actionable, alpha=args.alpha, mode=mode
        )
    except RecourseInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    print(
        render_recourse(
            recourse, title=f"{args.dataset}: recourse for row {index} (alpha={args.alpha})"
        )
    )
    return 0


def cmd_audit(args) -> int:
    bundle, _model, lewis = _build_explainer(args)
    auditor = FairnessAuditor(lewis, tolerance=args.tolerance)
    protected = args.protected or [
        name for name in ("sex", "race", "gender") if name in lewis.data
    ]
    if not protected:
        print("no protected attributes found; pass --protected", file=sys.stderr)
        return 1
    failures = 0
    for verdict in auditor.audit_all(protected):
        print(verdict.summary())
        failures += not verdict.is_counterfactually_fair
    return 0 if failures == 0 else 3


def cmd_serve(args) -> int:
    from repro.service import ExplainerSession, ResultCache
    from repro.service.server import serve

    cache = ResultCache(max_bytes=int(args.cache_mb * (1 << 20)))
    if args.store:
        from repro.store import Registry
        from repro.utils.exceptions import StoreError

        registry = Registry(
            args.store, max_bytes=int(args.session_mb * (1 << 20)), cache=cache
        )
        names = registry.names()
        if not names and not args.follow:
            print(
                f"store {args.store!r} has no tenants; create one with "
                "`repro snapshot --store DIR --name NAME` (or start a "
                "follower with --follow URL to bootstrap from a leader)",
                file=sys.stderr,
            )
            return 1
        preload = names if args.preload and "all" in args.preload else (
            args.preload or []
        )
        for name in preload:
            print(f"preloading tenant {name!r} ...")
            try:
                registry.get(name)
            except StoreError as exc:
                print(f"cannot preload {name!r}: {exc}", file=sys.stderr)
                return 1
        if args.follow:
            print(f"following leader at {args.follow}")
        if names:
            print(f"serving tenants: {', '.join(names)}")
        serve(
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            registry=registry,
            follow=args.follow,
            auto_promote=args.auto_promote,
        )
        return 0
    if args.follow:
        print("--follow requires --store (a follower replicates into a store)",
              file=sys.stderr)
        return 1
    bundle, _model, lewis = _build_explainer(args)
    session = ExplainerSession(
        lewis, cache=cache, default_actionable=bundle.actionable
    )
    try:
        serve(session, host=args.host, port=args.port, verbose=args.verbose)
    finally:
        print(render_service_stats(session.stats(), title="session statistics"))
    return 0


def cmd_snapshot(args) -> int:
    from repro.store import ArtifactStore, checkpoint_session, create_tenant
    from repro.utils.exceptions import StoreError

    store = ArtifactStore(args.store)
    name = args.name or args.dataset
    if store.snapshots(name):
        print(
            f"tenant {name!r} already exists in {args.store}; "
            "`repro registry rm` it first, or checkpoint the live tenant "
            "via the server's /v1/registry/<name>/snapshot",
            file=sys.stderr,
        )
        return 1
    bundle, _model, lewis = _build_explainer(args)
    try:
        session = create_tenant(
            store,
            name,
            lewis,
            default_actionable=bundle.actionable,
            snapshot=False,
        )
    except StoreError as exc:
        print(f"snapshot failed: {exc}", file=sys.stderr)
        return 1
    if args.warm:
        # warm the count tensors so the snapshot restores query-ready
        session.explain_global()
    manifest = checkpoint_session(store, session, name)
    session.close()
    print(
        f"tenant {name!r} snapshot {manifest['snapshot_id']} "
        f"({manifest['session']['n_rows']} rows, "
        f"fingerprint {manifest['session']['fingerprint']})"
    )
    return 0


def cmd_restore(args) -> int:
    from repro.store import ArtifactStore, restore_session, verify_restore
    from repro.utils.exceptions import StoreError

    store = ArtifactStore(args.store)
    session = None
    try:
        session = restore_session(store, args.name, snapshot_id=args.snapshot)
        verdict = verify_restore(session)
    except StoreError as exc:
        print(f"restore failed: {exc}", file=sys.stderr)
        if session is not None:
            session.close()
        return 1
    stats = session.stats()
    print(
        f"tenant {args.name!r} restored: {stats['n_rows']} rows, "
        f"table version {stats['table_version']}, "
        f"wal seq {stats['wal']['last_seq']}, "
        f"{verdict['tensors']} tensors verified bit-identical"
    )
    if args.explain:
        explanation = session.explain_global()
        for statement in explanation["result"]["statements"][:3]:
            print(" ", statement)
    session.close()
    return 0


def _literal(value: str):
    """Coerce a CLI string to int/float when it looks like one."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _monitor_base_url(args) -> str:
    base = args.url.rstrip("/")
    if not base.endswith("/v1"):
        base += "/v1"
    if args.tenant:
        base += f"/{args.tenant}"
    return base


def _http_json_raw(url: str, method: str = "GET", payload=None) -> dict:
    """One JSON request; lets ``urllib.error`` exceptions propagate.

    The reconnecting callers (``monitor watch --follow``) need the raw
    error to decide retryability; everyone else goes through
    :func:`_http_json`, which converts to a ``SystemExit``.
    """
    import json as _json
    from urllib import request

    data = _json.dumps(payload).encode() if payload is not None else None
    req = request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with request.urlopen(req) as resp:
        return _json.loads(resp.read())


def _http_json(url: str, method: str = "GET", payload=None) -> dict:
    from urllib import error

    try:
        return _http_json_raw(url, method, payload)
    except error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        raise SystemExit(f"HTTP {exc.code} from {url}: {body}") from exc
    except error.URLError as exc:
        raise SystemExit(f"cannot reach {url}: {exc.reason}") from exc


def cmd_monitor(args) -> int:
    from repro.report import render_alert, render_monitor_list

    base = _monitor_base_url(args)
    if args.monitor_command == "add":
        params: dict = {}
        if args.attribute:
            params["attribute"] = args.attribute
        if args.value is not None:
            params["value"] = _literal(args.value)
        if args.baseline is not None:
            params["baseline"] = _literal(args.baseline)
        if args.context:
            params["context"] = {
                k: _literal(v) for k, v in _parse_context(args.context).items()
            }
        if args.actionable:
            params["actionable"] = args.actionable
            params["alpha"] = args.alpha
            params["probe_size"] = args.probe_size
        payload: dict = {"kind": args.kind, "params": params}
        if args.metric:
            payload["metric"] = args.metric
        if args.threshold is not None:
            payload["threshold"] = args.threshold
        if args.cusum_limit is not None:
            payload["cusum"] = {
                "limit": args.cusum_limit, "slack": args.cusum_slack
            }
        monitor = _http_json(f"{base}/monitors", "POST", payload)
        metric = monitor["metric"]
        print(
            f"registered {monitor['id']} ({monitor['kind']}) "
            f"metric={metric} baseline={monitor['baseline'][metric]:.4f}"
        )
        return 0
    if args.monitor_command == "ls":
        print(render_monitor_list(_http_json(f"{base}/monitors")))
        return 0
    if args.monitor_command == "rm":
        result = _http_json(f"{base}/monitors/{args.id}", "DELETE")
        print(f"{result['id']}: {'removed' if result['removed'] else 'not found'}")
        return 0 if result["removed"] else 1
    if args.monitor_command == "watch":
        from urllib import error as _urlerror

        from repro.utils.backoff import Backoff

        cursor = args.cursor
        backoff = Backoff(initial=0.5, factor=2.0, max_delay=10.0, jitter=0.1)
        while True:
            try:
                result = _http_json_raw(
                    f"{base}/watch?cursor={cursor}&timeout={args.timeout}"
                )
            except (_urlerror.HTTPError, _urlerror.URLError, OSError) as exc:
                # In --follow mode a draining/overloaded server (503/429)
                # or a dropped connection is transient: back off and
                # reconnect with the same cursor, so no buffered alert is
                # ever skipped. One-shot mode keeps the old hard exit.
                status = getattr(exc, "code", None)
                retryable = status in (429, 503) or status is None
                if not (args.follow and retryable):
                    if status is not None:
                        body = exc.read().decode("utf-8", "replace")
                        raise SystemExit(
                            f"HTTP {status} from {base}/watch: {body}"
                        ) from exc
                    raise SystemExit(
                        f"cannot reach {base}/watch: "
                        f"{getattr(exc, 'reason', exc)}"
                    ) from exc
                delay = backoff.next_delay()
                print(
                    f"(watch interrupted: "
                    f"{f'HTTP {status}' if status else getattr(exc, 'reason', exc)}; "
                    f"reconnecting in {delay:.1f}s)",
                    file=sys.stderr,
                )
                time.sleep(delay)
                continue
            backoff.reset()  # healthy response: reset the reconnect ladder
            for alert in result["alerts"]:
                print(render_alert(alert))
            if result.get("cursor_truncated"):
                print(
                    "(warning: alerts between your cursor and the buffer "
                    "were dropped; see the monitor journal)",
                    file=sys.stderr,
                )
            cursor = result["cursor"]
            if not args.follow:
                if result["timed_out"]:
                    print(f"(no alerts; cursor {cursor})")
                return 0
    raise SystemExit(f"unknown monitor command {args.monitor_command!r}")


def cmd_obs(args) -> int:
    from repro.report import render_metrics_top, render_trace

    if args.obs_command == "top":
        stats = _http_json(f"{_monitor_base_url(args)}/stats")
        print(render_metrics_top(stats, limit=args.limit))
        return 0
    if args.obs_command == "trace":
        # traces are process-wide (one tracer per server), so the tenant
        # flag is irrelevant here — query the root endpoint directly.
        base = args.url.rstrip("/")
        if not base.endswith("/v1"):
            base += "/v1"
        if args.id:
            result = _http_json(f"{base}/traces?id={args.id}")
        else:
            query = f"?min_ms={args.min_ms}&limit={args.limit}"
            if args.slow:
                query += "&slow=1"
            result = _http_json(f"{base}/traces{query}")
        traces = result.get("traces") or []
        if not traces:
            print("(no finished traces match)")
            return 0
        for record in traces:
            print(render_trace(record))
        return 0
    raise SystemExit(f"unknown obs command {args.obs_command!r}")


def cmd_registry(args) -> int:
    from repro.store import ArtifactStore
    from repro.utils.exceptions import StoreError

    store = ArtifactStore(args.store)
    if args.registry_command == "ls":
        for name in store.tenants():
            manifest = store.manifest(name)
            snapshots = store.snapshots(name)
            print(
                f"{name:24s} snapshots={len(snapshots)} "
                f"latest={manifest['snapshot_id']} "
                f"rows={manifest['session']['n_rows']} "
                f"wal_seq={manifest['wal_seq']}"
            )
        if not store.tenants():
            print("(empty store)")
        return 0
    if args.registry_command == "add":
        return cmd_snapshot(args)
    if args.registry_command == "rm":
        try:
            removed = store.remove_tenant(args.name)
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if not removed:
            print(f"no tenant {args.name!r} in {args.store}", file=sys.stderr)
            return 1
        dropped = store.gc()
        print(f"removed tenant {args.name!r} ({dropped} blobs reclaimed)")
        return 0
    raise SystemExit(f"unknown registry command {args.registry_command!r}")


def cmd_replicate(args) -> int:
    base = args.url.rstrip("/")
    if not base.endswith("/v1"):
        base += "/v1"
    if args.replicate_command == "status":
        status = _http_json(f"{base}/replication")
        epoch = status.get("epoch", {})
        print(
            f"role={status['role']} epoch={epoch.get('current', 0)} "
            f"fencing_floor={epoch.get('max_seen', 0)} "
            f"leader={status.get('leader_url') or '-'}"
        )
        for tenant, lag in sorted((status.get("lag_records") or {}).items()):
            tailer = (status.get("tailers") or {}).get(tenant, {})
            state = "alive" if tailer.get("alive") else "stopped"
            suffix = f" last_error={tailer['last_error']}" if tailer.get(
                "last_error"
            ) else ""
            print(f"  {tenant:24s} lag={lag} tailer={state}{suffix}")
        return 0
    if args.replicate_command == "promote":
        payload: dict = {"reason": args.reason or "operator promotion"}
        if args.catchup_store:
            payload["catchup_store"] = args.catchup_store
        result = _http_json(f"{base}/replication/promote", "POST", payload)
        if result.get("already_leader"):
            print(f"already leader at epoch {result['epoch']}")
            return 0
        caught_up = result.get("caught_up") or {}
        replayed = sum(caught_up.values())
        print(
            f"promoted to leader at epoch {result['epoch']}"
            + (f" ({replayed} records caught up from the old leader's log)"
               if args.catchup_store else "")
        )
        return 0
    if args.replicate_command == "retarget":
        result = _http_json(
            f"{base}/replication/retarget", "POST", {"leader_url": args.leader}
        )
        print(f"now following {result['leader_url']}")
        return 0
    raise SystemExit(f"unknown replicate command {args.replicate_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LEWIS: probabilistic contrastive counterfactual explanations",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--dataset", default="german", choices=available_datasets()
        )
        p.add_argument("--rows", type=int, default=None, help="dataset size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--model", default="random_forest", choices=sorted(MODEL_KINDS)
        )

    p_explain = sub.add_parser("explain", help="global / contextual explanation")
    common(p_explain)
    p_explain.add_argument(
        "--context", nargs="*", default=[], metavar="ATTR=VALUE"
    )
    p_explain.add_argument(
        "--score",
        default="necessity_sufficiency",
        choices=["necessity", "sufficiency", "necessity_sufficiency"],
    )
    p_explain.add_argument("--chart", action="store_true", help="bar chart output")
    p_explain.set_defaults(func=cmd_explain)

    def cohort_flags(p):
        p.add_argument(
            "--indices",
            nargs="+",
            type=int,
            default=None,
            metavar="ROW",
            help="cohort mode: explain/audit these row indices in one batch",
        )
        p.add_argument(
            "--cohort",
            type=int,
            default=None,
            metavar="N",
            help="cohort mode: take the first N rows of the outcome pool",
        )

    p_local = sub.add_parser(
        "local", help="local explanation for one row or a cohort"
    )
    common(p_local)
    p_local.add_argument("--index", type=int, default=None)
    p_local.add_argument(
        "--negative", action="store_true", help="pick a negative-outcome row"
    )
    cohort_flags(p_local)
    p_local.set_defaults(func=cmd_local)

    p_recourse = sub.add_parser(
        "recourse", help="actionable recourse for one row or a cohort audit"
    )
    common(p_recourse)
    p_recourse.add_argument("--index", type=int, default=None)
    p_recourse.add_argument("--alpha", type=float, default=0.7)
    p_recourse.add_argument("--actionable", nargs="*", default=None)
    p_recourse.add_argument(
        "--anytime",
        action="store_true",
        help="greedy anytime mode with a certified optimality gap",
    )
    cohort_flags(p_recourse)
    p_recourse.set_defaults(func=cmd_recourse)

    p_audit = sub.add_parser("audit", help="counterfactual-fairness audit")
    common(p_audit)
    p_audit.add_argument("--protected", nargs="*", default=None)
    p_audit.add_argument("--tolerance", type=float, default=0.05)
    p_audit.set_defaults(func=cmd_audit)

    p_serve = sub.add_parser(
        "serve", help="start the JSON-over-HTTP explanation service"
    )
    common(p_serve)
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port; 0 picks a free port (default: 8321)",
    )
    p_serve.add_argument(
        "--cache-mb",
        type=float,
        default=32.0,
        help="result-cache budget in megabytes (default: 32)",
    )
    p_serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve every tenant of this artifact store (multi-tenant mode)",
    )
    p_serve.add_argument(
        "--preload",
        nargs="*",
        default=None,
        metavar="NAME",
        help="tenants to load before accepting traffic ('all' for every one)",
    )
    p_serve.add_argument(
        "--session-mb",
        type=float,
        default=256.0,
        help="byte budget for resident tenant sessions (default: 256)",
    )
    p_serve.add_argument(
        "--follow",
        default=None,
        metavar="URL",
        help="run as a read-only follower replicating from this leader",
    )
    p_serve.add_argument(
        "--auto-promote",
        action="store_true",
        help="follower promotes itself after repeated leader health failures",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    p_serve.set_defaults(func=cmd_serve)

    def store_common(p, need_name: bool):
        p.add_argument(
            "--store", required=True, metavar="DIR", help="artifact store directory"
        )
        p.add_argument(
            "--name",
            required=need_name,
            default=None,
            help="tenant name" + ("" if need_name else " (default: dataset name)"),
        )

    p_snapshot = sub.add_parser(
        "snapshot", help="train once, persist the warm session as a tenant"
    )
    common(p_snapshot)
    store_common(p_snapshot, need_name=False)
    p_snapshot.add_argument(
        "--no-warm",
        dest="warm",
        action="store_false",
        help="skip pre-warming count tensors before the snapshot",
    )
    p_snapshot.set_defaults(func=cmd_snapshot, warm=True)

    p_restore = sub.add_parser(
        "restore", help="rebuild a tenant from snapshot + write-ahead log"
    )
    store_common(p_restore, need_name=True)
    p_restore.add_argument(
        "--snapshot", default=None, help="snapshot id (default: latest)"
    )
    p_restore.add_argument(
        "--explain", action="store_true", help="print a quick global explanation"
    )
    p_restore.set_defaults(func=cmd_restore)

    p_registry = sub.add_parser("registry", help="manage a store's tenants")
    reg_sub = p_registry.add_subparsers(dest="registry_command", required=True)
    p_ls = reg_sub.add_parser("ls", help="list tenants and snapshots")
    p_ls.add_argument("--store", required=True, metavar="DIR")
    p_add = reg_sub.add_parser("add", help="alias of `snapshot`")
    common(p_add)
    store_common(p_add, need_name=False)
    p_add.add_argument(
        "--no-warm", dest="warm", action="store_false",
        help="skip pre-warming count tensors before the snapshot",
    )
    p_add.set_defaults(warm=True)
    p_rm = reg_sub.add_parser("rm", help="remove a tenant (snapshots + log)")
    p_rm.add_argument("--store", required=True, metavar="DIR")
    p_rm.add_argument("--name", required=True)
    p_registry.set_defaults(func=cmd_registry)

    p_replicate = sub.add_parser(
        "replicate", help="inspect and fail over a replicated serving tier"
    )
    rep_sub = p_replicate.add_subparsers(dest="replicate_command", required=True)

    def replicate_common(p):
        p.add_argument(
            "--url", default="http://127.0.0.1:8321",
            help="replica base URL (default: %(default)s)",
        )

    p_rep_status = rep_sub.add_parser(
        "status", help="role, epoch, per-tenant lag and tailer state"
    )
    replicate_common(p_rep_status)
    p_rep_promote = rep_sub.add_parser(
        "promote", help="promote this follower to leader (epoch-fenced)"
    )
    replicate_common(p_rep_promote)
    p_rep_promote.add_argument(
        "--catchup-store",
        default=None,
        metavar="DIR",
        help="dead leader's store root; replay its durable WAL tail first",
    )
    p_rep_promote.add_argument(
        "--reason", default=None, help="recorded in the epoch history"
    )
    p_rep_retarget = rep_sub.add_parser(
        "retarget", help="point this follower at a new leader"
    )
    replicate_common(p_rep_retarget)
    p_rep_retarget.add_argument(
        "--leader", required=True, metavar="URL", help="new leader base URL"
    )
    p_replicate.set_defaults(func=cmd_replicate)

    p_monitor = sub.add_parser(
        "monitor", help="manage standing drift monitors on a running service"
    )
    mon_sub = p_monitor.add_subparsers(dest="monitor_command", required=True)

    def monitor_common(p):
        p.add_argument(
            "--url", default="http://127.0.0.1:8321",
            help="service base URL (default: %(default)s)",
        )
        p.add_argument(
            "--tenant", default=None, help="registry tenant (default session if omitted)"
        )

    p_mon_add = mon_sub.add_parser("add", help="register a monitor")
    monitor_common(p_mon_add)
    p_mon_add.add_argument(
        "--kind", required=True,
        choices=["score", "fairness", "monotonicity", "recourse"],
    )
    p_mon_add.add_argument("--metric", default=None)
    p_mon_add.add_argument("--attribute", default=None)
    p_mon_add.add_argument("--value", default=None, help="treatment label (score)")
    p_mon_add.add_argument("--baseline", default=None, help="baseline label (score)")
    p_mon_add.add_argument(
        "--context", nargs="*", default=[], metavar="ATTR=VALUE"
    )
    p_mon_add.add_argument(
        "--actionable", nargs="+", default=None, metavar="ATTR",
        help="actionable attributes (recourse)",
    )
    p_mon_add.add_argument("--alpha", type=float, default=0.8)
    p_mon_add.add_argument("--probe-size", type=int, default=32)
    p_mon_add.add_argument(
        "--threshold", type=float, default=None,
        help="threshold detector: alert when |metric - baseline| exceeds this",
    )
    p_mon_add.add_argument(
        "--cusum-limit", type=float, default=None,
        help="CUSUM detector limit (fires when an accumulator crosses it)",
    )
    p_mon_add.add_argument("--cusum-slack", type=float, default=0.0)

    p_mon_ls = mon_sub.add_parser("ls", help="list monitors")
    monitor_common(p_mon_ls)

    p_mon_rm = mon_sub.add_parser("rm", help="deregister a monitor")
    monitor_common(p_mon_rm)
    p_mon_rm.add_argument("id", help="monitor id, e.g. m1")

    p_mon_watch = mon_sub.add_parser("watch", help="long-poll for drift alerts")
    monitor_common(p_mon_watch)
    p_mon_watch.add_argument("--cursor", type=int, default=0)
    p_mon_watch.add_argument("--timeout", type=float, default=25.0)
    p_mon_watch.add_argument(
        "--follow", action="store_true",
        help="keep polling until interrupted (default: one poll)",
    )
    p_monitor.set_defaults(func=cmd_monitor)

    p_obs = sub.add_parser(
        "obs", help="inspect a running service's metrics and traces"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_obs_top = obs_sub.add_parser(
        "top", help="busiest counters/gauges/histograms from /v1/stats"
    )
    monitor_common(p_obs_top)
    p_obs_top.add_argument(
        "--limit", type=int, default=20, help="rows per section"
    )

    p_obs_trace = obs_sub.add_parser(
        "trace", help="span waterfalls of recent requests from /v1/traces"
    )
    monitor_common(p_obs_trace)
    p_obs_trace.add_argument("--id", default=None, help="one trace by id")
    p_obs_trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="only traces at least this slow",
    )
    p_obs_trace.add_argument("--limit", type=int, default=10)
    p_obs_trace.add_argument(
        "--slow", action="store_true",
        help="read the slow-request ring instead of the main ring",
    )
    p_obs.set_defaults(func=cmd_obs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs import tracing as _tracing

    # Every command runs under a root trace: with REPRO_PROFILE=1 the
    # finished trace (in-process) carries a cProfile summary of the run.
    with _tracing.trace(f"cli {args.command}", tags={"command": args.command}):
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
