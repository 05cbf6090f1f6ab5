"""ArtifactStore: content addressing, manifests, codecs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.causal.graph import CausalDiagram
from repro.data.table import Column, Table
from repro.store import (
    ArtifactStore,
    graph_from_dict,
    graph_to_dict,
    table_from_bytes,
    table_to_bytes,
)
from repro.utils.exceptions import StoreError


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def make_table(n=40, seed=0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 4, n).tolist(),
            "color": rng.choice(["red", "green", "blue"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2, 3], "color": ["red", "green", "blue"]},
        unordered=["color"],
    )


class TestBlobs:
    def test_round_trip_and_dedup(self, store):
        d1 = store.put_bytes(b"hello")
        d2 = store.put_bytes(b"hello")
        assert d1 == d2
        assert store.get_bytes(d1) == b"hello"
        assert store.has(d1)
        assert store.stats()["objects"] == 1

    def test_missing_blob_raises(self, store):
        with pytest.raises(StoreError, match="no object"):
            store.get_bytes("0" * 64)

    def test_json_round_trip(self, store):
        doc = {"b": [1, 2], "a": {"nested": True}}
        digest = store.put_json(doc)
        assert store.get_json(digest) == doc
        # canonical encoding: key order does not change the address
        assert store.put_json({"a": {"nested": True}, "b": [1, 2]}) == digest


class TestManifests:
    def test_write_and_latest(self, store):
        first = store.write_manifest("t1", {"blobs": {}, "wal_seq": 0})
        second = store.write_manifest("t1", {"blobs": {}, "wal_seq": 3})
        assert [first, second] == store.snapshots("t1")
        assert store.manifest("t1")["snapshot_id"] == second
        assert store.manifest("t1", first)["wal_seq"] == 0
        assert store.tenants() == ["t1"]

    def test_unknown_tenant_raises(self, store):
        with pytest.raises(StoreError, match="unknown tenant"):
            store.manifest("nope")
        store.write_manifest("t1", {"blobs": {}})
        with pytest.raises(StoreError, match="no snapshot"):
            store.manifest("t1", "99999999")

    def test_bad_tenant_names_rejected(self, store):
        for bad in ("", "../evil", "a/b", ".hidden", "sp ace"):
            with pytest.raises(StoreError, match="invalid tenant name"):
                store.write_manifest(bad, {})

    def test_reserved_route_names_rejected(self, store):
        # a tenant named like an HTTP route would be unreachable
        for reserved in ("update", "registry", "health", "v1"):
            with pytest.raises(StoreError, match="reserved"):
                store.write_manifest(reserved, {})

    def test_remove_and_gc(self, store):
        digest = store.put_bytes(b"model-bytes")
        store.write_manifest("t1", {"blobs": {"model": digest}, "wal_seq": 0})
        store.write_manifest("t2", {"blobs": {"model": digest}, "wal_seq": 0})
        assert store.remove_tenant("t1")
        assert store.gc() == 0  # t2 still references the blob
        assert store.remove_tenant("t2")
        assert store.gc() == 1
        assert not store.has(digest)
        assert not store.remove_tenant("t2")


class TestTableCodec:
    def test_round_trip_bit_identical(self):
        table = make_table()
        restored = table_from_bytes(table_to_bytes(table))
        assert restored.names == table.names
        for name in table.names:
            original = table.column(name)
            copy = restored.column(name)
            assert np.array_equal(copy.codes, original.codes)
            assert copy.categories == original.categories
            assert copy.ordered == original.ordered
        # the schema fingerprint (and hence every cache key) survives
        assert restored.schema_fingerprint() == table.schema_fingerprint()

    def test_numpy_scalar_domains_become_portable(self):
        table = Table(
            [Column.from_codes("x", np.array([0, 1]), [np.int64(0), np.int64(1)])]
        )
        restored = table_from_bytes(table_to_bytes(table))
        assert restored.domain("x") == (0, 1)
        assert all(isinstance(c, int) for c in restored.domain("x"))


class TestGraphCodec:
    def test_round_trip(self):
        graph = CausalDiagram(
            edges=[("a", "b"), ("b", "c")], nodes=["a", "b", "c", "isolated"]
        )
        restored = graph_from_dict(graph_to_dict(graph))
        assert sorted(restored.nodes) == sorted(graph.nodes)
        assert sorted(restored.edges) == sorted(graph.edges)
