"""Tenant builder and server launcher for the benchmark.

Two subcommands, each run as its own process by ``run.py``:

``build --store DIR --info FILE``
    Builds the benchmark tenant the way ``repro snapshot`` does (seeded
    synthetic ``adult``, 70/30 split, random forest, ``Lewis``, warm
    global explanation, snapshot + WAL compaction) and writes the tenant
    description the request generators need to ``FILE``.

``serve --store DIR [--trace FILE] [--trace-from-start]``
    Runs ``repro serve --store DIR --preload all --port 0``.  With
    ``--trace`` the layer entry points are wrapped first (see
    ``spans.py``); SIGUSR1 starts recording, SIGUSR2 stops it and writes
    the spans to ``FILE``.  ``--trace-from-start`` records from boot, so
    the snapshot restore and WAL replay are traced too.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

TENANT = "adult"
DATA_SEED = 0
#: dataset rows before the 70/30 split: a 6,000-row explained population
ROWS = 20_000
N_TREES = 15


def build_lewis():
    """The tenant's explainer: also the answer check's in-process reference."""
    from repro import Lewis, fit_table_model, load_dataset, train_test_split

    bundle = load_dataset("adult", n_rows=ROWS, seed=DATA_SEED)
    train, test = train_test_split(bundle.table, test_fraction=0.3, seed=DATA_SEED)
    model = fit_table_model(
        "random_forest",
        train,
        bundle.feature_names,
        bundle.label,
        seed=DATA_SEED,
        n_estimators=N_TREES,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph, positive_outcome=bundle.positive_label
    )
    return lewis, bundle


def build(args) -> int:
    from repro.store import ArtifactStore, checkpoint_session, create_tenant

    lewis, bundle = build_lewis()
    store = ArtifactStore(args.store)
    session = create_tenant(
        store, TENANT, lewis, default_actionable=bundle.actionable, snapshot=False
    )
    session.explain_global()
    checkpoint_session(store, session, TENANT)
    session.close()
    data = lewis.data
    info = {
        "n_rows": len(data),
        "features": list(data.names),
        "domains": {name: list(data.domain(name)) for name in data.names},
        "negative_indices": [int(i) for i in lewis.negative_indices()],
    }
    with open(args.info, "w") as fh:
        json.dump(info, fh)
    return 0


def serve(args) -> int:
    from repro.cli import main

    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        signal.signal(signal.SIGUSR1, lambda *_: recorder.start())
        signal.signal(
            signal.SIGUSR2, lambda *_: recorder.stop_and_dump(args.trace)
        )
        if args.trace_from_start:
            recorder.start()
    return main(
        ["serve", "--store", args.store, "--preload", "all", "--port", "0"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launcher")
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build")
    p_build.add_argument("--store", required=True)
    p_build.add_argument("--info", required=True)
    p_build.set_defaults(func=build)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--store", required=True)
    p_serve.add_argument("--trace", default=None)
    p_serve.add_argument("--trace-from-start", action="store_true")
    p_serve.set_defaults(func=serve)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)
    sys.exit(main())
