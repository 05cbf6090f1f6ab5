"""Capture a live explainer session to the store; rebuild it without training.

A session's expensive standing state is exactly three artifacts:

* the trained black box (JSON via :mod:`repro.models.serialize`),
* the encoded population table (codes + domains, one ``.npz``),
* the black box's positive-decision vector over that population.

``snapshot_session`` content-addresses the three into the store and
writes a manifest tying them to the explainer's configuration (feature
names, attributes, favourability-ordered domains, causal graph), to the
session's state token and table version, and to the write-ahead-log
sequence number the snapshot captures.  The engine's count tensors are
only a cache of the table, so a snapshot depends on the tenant's data,
not on the queries it served.  ``restore_session`` inverts it: rebuild
the :class:`~repro.core.lewis.Lewis` without re-training, re-predicting
or re-inferring orderings (each tensor is counted on first use, as in a
fresh build), then replay the WAL tail so the session lands exactly
where the original left off.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.lewis import Lewis
from repro.models.serialize import model_from_dict, model_to_dict
from repro.service.cache import ResultCache
from repro.service.session import ExplainerSession, plain_json
from repro.store.artifacts import (
    ArtifactStore,
    array_from_bytes,
    array_to_bytes,
    check_tenant_name,
    graph_from_dict,
    graph_to_dict,
    table_from_bytes,
    table_to_bytes,
)
from repro.store.wal import DeltaLog, DurableSession
from repro.utils.exceptions import StoreError

SNAPSHOT_FORMAT = 1


def snapshot_session(
    store: ArtifactStore, session: ExplainerSession, name: str | None = None
) -> dict:
    """Persist ``session``'s full state; returns the written manifest.

    Only sessions over serialisable models can be snapshotted (opaque
    callables cannot be rebuilt in another process). The session's model,
    table and positive vector are captured as content-addressed blobs,
    so unchanged artifacts cost nothing on re-snapshot.

    Capturing a :class:`DurableSession` holds its update lock for the
    duration, so the serialized state and the recorded ``wal_seq`` are
    consistent even while the session is serving update traffic.
    """
    import contextlib

    name = check_tenant_name(name or session.tenant)
    guard = getattr(session, "update_lock", None) or contextlib.nullcontext()
    with guard:
        return _snapshot_locked(store, session, name)


def _snapshot_locked(
    store: ArtifactStore, session: ExplainerSession, name: str
) -> dict:
    lewis = session.lewis
    try:
        model_doc = model_to_dict(lewis._model)
    except TypeError as exc:
        raise StoreError(
            f"cannot snapshot tenant {name!r}: {exc} "
            "(only serialisable models survive a process boundary)"
        ) from exc
    blobs = {
        "model": store.put_json(model_doc),
        "table": store.put_bytes(table_to_bytes(lewis.data)),
        "positive": store.put_bytes(
            array_to_bytes(positive=lewis.positive.astype(np.int8))
        ),
    }
    wal_seq = session.log.last_seq if isinstance(session, DurableSession) else 0
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "name": name,
        "wal_seq": wal_seq,
        "blobs": blobs,
        "graph": graph_to_dict(lewis.graph) if lewis.graph is not None else None,
        "lewis": {
            "feature_names": list(lewis.feature_names),
            "attributes": list(lewis.attributes),
            "positive_outcome": plain_json(lewis._positive_outcome),
            "threshold": lewis.threshold,
            "model_domains": {
                key: plain_json(list(domain))
                for key, domain in lewis._model_domains.items()
            },
        },
        "session": {
            "fingerprint": session.fingerprint,
            "state_token": session.state_token,
            "table_version": session.table_version,
            "default_actionable": session.default_actionable,
            "n_rows": len(lewis.data),
        },
    }
    snapshot_id = store.write_manifest(name, manifest)
    manifest["snapshot_id"] = snapshot_id
    return manifest


def restore_session(
    store: ArtifactStore,
    name: str,
    snapshot_id: str | None = None,
    *,
    cache: ResultCache | None = None,
    replay: bool = True,
    **session_kwargs: Any,
) -> DurableSession:
    """Rebuild a tenant's session: snapshot + write-ahead-log tail.

    The returned session skips model training, population prediction
    and ordering inference — all three come from the snapshot — and has
    replayed every logged delta newer than the snapshot
    (``replay=False`` restores the bare snapshot state). Its engine
    starts cold and counts each tensor from the table on first use. The
    restored model fingerprint is checked against the manifest so a
    snapshot that no longer describes its blobs fails loudly.  The
    session's state chain resumes from the token and table version the
    manifest records, so a restore, or a follower bootstrapped or
    resynced from the snapshot, names every state as the live session
    did.  Blobs the manifest names beyond these three (the ``engine``
    tensor archive of older snapshots) are never read.
    """
    manifest = store.manifest(name, snapshot_id)
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise StoreError(
            f"unsupported snapshot format {manifest.get('format')!r} "
            f"for tenant {name!r}"
        )
    spec = manifest["lewis"]
    model = model_from_dict(store.get_json(manifest["blobs"]["model"]))
    table = table_from_bytes(store.get_bytes(manifest["blobs"]["table"]))
    positive = array_from_bytes(
        store.get_bytes(manifest["blobs"]["positive"]), "positive"
    ).astype(bool)
    graph = graph_from_dict(manifest["graph"]) if manifest["graph"] else None
    positive_outcome = spec["positive_outcome"]
    lewis = Lewis(
        model,
        data=table,
        feature_names=spec["feature_names"],
        positive_outcome=positive_outcome,
        threshold=spec["threshold"],
        graph=graph,
        attributes=spec["attributes"],
        infer_orderings=False,
        positive_vector=positive,
        model_domains=spec["model_domains"],
    )
    log = DeltaLog(store.wal_path(name))
    # the manifest anchors sequence continuity across log compactions
    log.ensure_floor(int(manifest["wal_seq"]))
    session = DurableSession(
        lewis,
        log,
        cache=cache,
        default_actionable=manifest["session"]["default_actionable"],
        tenant=name,
        **session_kwargs,
    )
    expected = manifest["session"]["fingerprint"]
    if session.fingerprint != expected:
        session.close()
        raise StoreError(
            f"restored fingerprint {session.fingerprint} != manifest "
            f"{expected} for tenant {name!r}: snapshot does not describe "
            "its blobs (non-JSON-portable domains?)"
        )
    # the snapshot's state keeps the name the live session gave it
    session._resume_state(
        manifest["session"]["state_token"], manifest["session"]["table_version"]
    )
    if replay:
        expected = int(manifest["wal_seq"]) + 1
        for seq, delta in log.replay(after=int(manifest["wal_seq"])):
            if seq != expected:
                session.close()
                raise StoreError(
                    f"write-ahead log of tenant {name!r} starts at seq {seq} "
                    f"but snapshot {manifest['snapshot_id']} needs seq "
                    f"{expected}: the gap was compacted away by a later "
                    "checkpoint — restore the latest snapshot instead"
                )
            session.apply_logged(delta)
            expected += 1
    return session


def checkpoint_session(
    store: ArtifactStore, session: ExplainerSession, name: str | None = None
) -> dict:
    """Snapshot, then compact the write-ahead log up to the snapshot.

    The snapshot captures everything through the log's current sequence
    number, so the prefix it covers is dropped; recovery becomes "load
    snapshot + replay (now empty) tail" until new updates arrive.
    """
    manifest = snapshot_session(store, session, name)
    if isinstance(session, DurableSession):
        session.log.truncate_through(int(manifest["wal_seq"]))
    return manifest


def create_tenant(
    store: ArtifactStore,
    name: str,
    lewis: Lewis,
    *,
    cache: ResultCache | None = None,
    default_actionable=None,
    snapshot: bool = True,
    **session_kwargs: Any,
) -> DurableSession:
    """Bind a fresh explainer to the store as tenant ``name``.

    Wraps ``lewis`` in a :class:`DurableSession` writing through the
    tenant's log and (by default) takes the initial snapshot, after
    which the tenant is restorable in any process.

    The tenant must be *fresh*: re-creating an existing name would pair
    a brand-new table with the old log's sequence numbers, and the first
    checkpoint would then compact away durably acknowledged updates the
    new snapshot never contained. Restore or remove the old tenant
    first.
    """
    name = check_tenant_name(name)
    if store.snapshots(name):
        raise StoreError(
            f"tenant {name!r} already exists; restore it (or remove it) "
            "instead of re-creating it over its own history"
        )
    existing_log = DeltaLog(store.wal_path(name))
    if existing_log.last_seq > 0:
        raise StoreError(
            f"tenant {name!r} has an orphaned non-empty write-ahead log at "
            f"{store.wal_path(name)}; refusing to overwrite logged updates"
        )
    session = DurableSession(
        lewis,
        existing_log,
        cache=cache,
        default_actionable=default_actionable,
        tenant=name,
        **session_kwargs,
    )
    if snapshot:
        snapshot_session(store, session, name)
    return session
