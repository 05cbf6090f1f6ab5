"""Durable multi-tenant persistence for the explanation service.

The serving layer (PR 2) made LEWIS a live system; this subpackage makes
it a *durable, multi-tenant* one:

* :class:`ArtifactStore` — content-addressed on-disk blobs + snapshot
  manifests: one snapshot captures a session's model, encoded table and
  positive-decision vector, so a restore skips training, prediction and
  ordering inference; count tensors are rebuilt lazily from the table.
* :class:`DeltaLog` / :class:`DurableSession` — an fsync'd JSONL
  write-ahead log of :class:`~repro.service.updates.TableDelta` records;
  recovery = latest snapshot + replay of the log tail, bit-identical to
  the session that crashed.
* :class:`Registry` — names -> stored sessions, lazy-loaded behind
  per-tenant locks under a byte-budgeted LRU, sharing one tenant-scoped
  result cache.

``python -m repro.cli serve --store DIR`` serves a registry over HTTP;
``snapshot`` / ``restore`` / ``registry ls|add|rm`` manage it offline.
"""

from repro.store.artifacts import (
    ArtifactStore,
    graph_from_dict,
    graph_to_dict,
    table_from_bytes,
    table_to_bytes,
)
from repro.store.registry import Registry, session_footprint
from repro.store.snapshot import (
    checkpoint_session,
    create_tenant,
    restore_session,
    snapshot_session,
)
from repro.store.wal import DeltaLog, DurableSession

__all__ = [
    "ArtifactStore",
    "DeltaLog",
    "DurableSession",
    "Registry",
    "checkpoint_session",
    "create_tenant",
    "graph_from_dict",
    "graph_to_dict",
    "restore_session",
    "session_footprint",
    "snapshot_session",
    "table_from_bytes",
    "table_to_bytes",
]
