"""Content-addressed artifact store: blobs, snapshot manifests, codecs.

The durable layer of the serving stack stores three kinds of things:

* **blobs** — immutable byte strings (serialized models, ``.npz`` table
  and positive-vector archives) addressed by the SHA-256 of their
  content under ``objects/<aa>/<digest>``.  Content addressing
  deduplicates for free: re-snapshotting an unchanged model writes
  nothing new, and equal tables across tenants share one object.
* **manifests** — small JSON documents under
  ``manifests/<tenant>/<seq>.json`` tying one snapshot together: which
  blobs make up the session, the causal graph, the explainer's
  configuration, and the write-ahead-log sequence number the snapshot
  captures (everything after it must be replayed on restore).
* **write-ahead logs** — one append-only JSONL file per tenant under
  ``wal/<tenant>.jsonl`` (owned by :class:`~repro.store.wal.DeltaLog`;
  the store only hands out the path).

All writes are crash-safe: blobs and manifests go through a
write-temp → fsync → atomic-rename sequence, and the parent directory is
fsynced so the rename itself survives power loss.

This module also hosts the codecs that turn a :class:`~repro.data.table
.Table` and a :class:`~repro.causal.graph.CausalDiagram` into bytes and
back.  Tables round-trip through one ``.npz`` archive (code arrays plus
a JSON schema of names/domains/orderedness); graphs are plain JSON node
and edge lists.  Domains must be JSON-representable (str / int / float /
bool) so a restored column is *identical* to the saved one — the schema
fingerprint, and therefore every cache key, survives the round trip.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from pathlib import Path
from typing import Any

import numpy as np

from repro.causal.graph import CausalDiagram
from repro.data.table import Column, Table
from repro.utils.exceptions import CorruptArtifactError, StoreError

import repro.faults as _faults

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")

#: route names the multi-tenant HTTP server claims as first path segments;
#: a tenant with one of these names would be unreachable over HTTP.  The
#: server reads its ``RESERVED_SEGMENTS`` from here, and a route test
#: checks that every route's first segment is listed.
RESERVED_TENANT_NAMES = frozenset(
    {"health", "healthz", "readyz", "stats", "explain", "recourse",
     "audit", "scores", "update", "registry", "monitors", "watch",
     "metrics", "traces", "obs", "log", "replication", "v1"}
)


def check_tenant_name(name: str) -> str:
    """Validate a tenant name (it becomes a directory name and URL segment)."""
    name = str(name)
    if not name or name.startswith(".") or not set(name) <= _NAME_OK:
        raise StoreError(
            f"invalid tenant name {name!r}: use letters, digits, '.', '_', '-' "
            "(must not start with '.')"
        )
    if name in RESERVED_TENANT_NAMES:
        raise StoreError(
            f"invalid tenant name {name!r}: it collides with a reserved "
            f"HTTP route segment ({sorted(RESERVED_TENANT_NAMES)})"
        )
    return name


def _fsync_dir(path: Path) -> None:
    """fsync a directory entry so a rename/create inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + atomic rename.

    A failure anywhere before ``os.replace`` leaves at most a torn temp
    file behind — ``path`` itself is either absent or still its previous
    complete content, which is what makes injected crashes here safe to
    assert against (the store never exposes a half-written artifact).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        _faults.inject(
            "store.atomic_write",
            lambda: OSError(f"injected artifact write failure: {path}"),
        )
        if _faults.fires("store.atomic_write.torn"):
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            raise OSError(f"injected torn artifact write: {path}")
        fh.write(data)
        fh.flush()
        _faults.inject(
            "store.atomic_write.fsync",
            lambda: OSError(f"injected artifact fsync failure: {path}"),
        )
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


# ---------------------------------------------------------------------------
# codecs


def _plain(value: Any) -> Any:
    """Collapse numpy scalars so domains serialize to portable JSON."""
    return value.item() if isinstance(value, np.generic) else value


def table_to_bytes(table: Table) -> bytes:
    """Encode a table as one ``.npz`` archive (codes + JSON schema)."""
    schema = [
        {
            "name": col.name,
            "categories": [_plain(c) for c in col.categories],
            "ordered": bool(col.ordered),
        }
        for col in table
    ]
    buf = io.BytesIO()
    arrays = {f"codes_{i}": col.codes for i, col in enumerate(table)}
    np.savez_compressed(buf, __schema__=np.array(json.dumps(schema)), **arrays)
    return buf.getvalue()


def table_from_bytes(data: bytes) -> Table:
    """Rebuild a table saved by :func:`table_to_bytes`."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        schema = json.loads(str(archive["__schema__"][()]))
        columns = [
            Column(
                spec["name"],
                archive[f"codes_{i}"],
                tuple(spec["categories"]),
                ordered=spec["ordered"],
            )
            for i, spec in enumerate(schema)
        ]
    return Table(columns)


def array_to_bytes(**arrays: np.ndarray) -> bytes:
    """Encode named arrays as one ``.npz`` archive."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def array_from_bytes(data: bytes, name: str) -> np.ndarray:
    """Read one named array out of an :func:`array_to_bytes` archive."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return np.asarray(archive[name])


def graph_to_dict(graph: CausalDiagram) -> dict:
    """JSON view of a causal diagram (node and edge lists)."""
    return {
        "nodes": list(graph.nodes),
        "edges": [[u, v] for u, v in graph.edges],
    }


def graph_from_dict(data: dict) -> CausalDiagram:
    """Rebuild a diagram saved by :func:`graph_to_dict`."""
    return CausalDiagram(
        edges=[(u, v) for u, v in data["edges"]], nodes=data["nodes"]
    )


# ---------------------------------------------------------------------------
# the store


class ArtifactStore:
    """Content-addressed on-disk store for session snapshots.

    Parameters
    ----------
    root:
        Directory the store lives in (created if missing). The layout —
        ``objects/``, ``manifests/<tenant>/``, ``wal/`` — is documented
        in the module docstring.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        for sub in ("objects", "manifests", "wal"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- blobs -------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    def put_bytes(self, data: bytes) -> str:
        """Store a blob; returns its SHA-256 address (idempotent)."""
        digest = hashlib.sha256(data).hexdigest()
        path = self._object_path(digest)
        if not path.exists():
            try:
                atomic_write(path, data)
            except OSError as exc:
                raise StoreError(
                    f"cannot store object {digest!r} in {self.root}: {exc}"
                ) from exc
        return digest

    def get_bytes(self, digest: str) -> bytes:
        """Read and *verify* the blob at ``digest``.

        Content addressing makes every read self-checking: the address
        is the SHA-256 of the content, so bit rot, torn writes that
        somehow landed, or manual tampering surface as
        :class:`CorruptArtifactError` instead of being loaded as state.
        """
        path = self._object_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise StoreError(f"no object {digest!r} in {self.root}") from exc
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise CorruptArtifactError(
                f"object {digest!r} in {self.root} is corrupt: content "
                f"hashes to {actual!r}; refusing to load damaged state"
            )
        return data

    def has(self, digest: str) -> bool:
        """True when the blob at ``digest`` is present."""
        return self._object_path(digest).exists()

    def put_json(self, payload: Any) -> str:
        """Store a JSON document as a canonical (sorted-key) blob."""
        return self.put_bytes(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )

    def get_json(self, digest: str) -> Any:
        """Read and parse the JSON blob at ``digest``."""
        return json.loads(self.get_bytes(digest))

    # -- manifests ---------------------------------------------------------

    def _tenant_dir(self, name: str) -> Path:
        return self.root / "manifests" / check_tenant_name(name)

    def tenants(self) -> list[str]:
        """Names with at least one snapshot, sorted."""
        base = self.root / "manifests"
        return sorted(
            p.name for p in base.iterdir() if p.is_dir() and any(p.glob("*.json"))
        )

    def snapshots(self, name: str) -> list[str]:
        """Snapshot ids of ``name``, oldest first."""
        tenant = self._tenant_dir(name)
        if not tenant.is_dir():
            return []
        return sorted(p.stem for p in tenant.glob("*.json"))

    def write_manifest(self, name: str, manifest: dict) -> str:
        """Assign the next snapshot id, persist the manifest, return the id."""
        name = check_tenant_name(name)
        existing = self.snapshots(name)
        seq = (int(existing[-1]) if existing else 0) + 1
        snapshot_id = f"{seq:08d}"
        manifest = dict(manifest)
        manifest["snapshot_id"] = snapshot_id
        try:
            atomic_write(
                self._tenant_dir(name) / f"{snapshot_id}.json",
                json.dumps(manifest, indent=2, sort_keys=True).encode(),
            )
        except OSError as exc:
            raise StoreError(
                f"cannot write manifest {snapshot_id!r} for tenant "
                f"{name!r}: {exc}"
            ) from exc
        return snapshot_id

    def manifest(self, name: str, snapshot_id: str | None = None) -> dict:
        """Load a manifest (the latest when ``snapshot_id`` is omitted)."""
        ids = self.snapshots(name)
        if not ids:
            raise StoreError(f"unknown tenant {name!r} in {self.root}")
        if snapshot_id is None:
            snapshot_id = ids[-1]
        elif snapshot_id not in ids:
            raise StoreError(f"tenant {name!r} has no snapshot {snapshot_id!r}")
        path = self._tenant_dir(name) / f"{snapshot_id}.json"
        return json.loads(path.read_text())

    def remove_tenant(self, name: str) -> bool:
        """Drop a tenant's manifests, WAL and monitor journal."""
        name = check_tenant_name(name)
        removed = False
        tenant = self._tenant_dir(name)
        if tenant.is_dir():
            shutil.rmtree(tenant)
            removed = True
        for path in (self.wal_path(name), self.monitor_journal_path(name)):
            if path.exists():
                path.unlink()
                removed = True
        return removed

    # -- write-ahead logs --------------------------------------------------

    def wal_path(self, name: str) -> Path:
        """Path of the tenant's write-ahead log (may not exist yet)."""
        return self.root / "wal" / f"{check_tenant_name(name)}.jsonl"

    def monitor_journal_path(self, name: str) -> Path:
        """Path of the tenant's monitor journal (may not exist yet)."""
        return self.root / "monitors" / f"{check_tenant_name(name)}.jsonl"

    # -- maintenance -------------------------------------------------------

    def referenced_blobs(self) -> set[str]:
        """Every blob digest some manifest still points at."""
        live: set[str] = set()
        for name in self.tenants():
            for snapshot_id in self.snapshots(name):
                manifest = self.manifest(name, snapshot_id)
                live.update(manifest.get("blobs", {}).values())
        return live

    def gc(self) -> int:
        """Delete unreferenced blobs; returns how many were dropped."""
        live = self.referenced_blobs()
        dropped = 0
        for shard in (self.root / "objects").iterdir():
            if not shard.is_dir():
                continue
            for blob in shard.iterdir():
                if blob.name not in live:
                    blob.unlink()
                    dropped += 1
        return dropped

    def stats(self) -> dict:
        """Object/manifest counts and total blob bytes."""
        objects = [
            blob
            for shard in (self.root / "objects").iterdir()
            if shard.is_dir()
            for blob in shard.iterdir()
        ]
        return {
            "root": str(self.root),
            "tenants": self.tenants(),
            "objects": len(objects),
            "object_bytes": sum(blob.stat().st_size for blob in objects),
            "snapshots": {
                name: len(self.snapshots(name)) for name in self.tenants()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"
