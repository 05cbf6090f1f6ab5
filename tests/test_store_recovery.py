"""Kill-and-restore: snapshot + WAL replay == fresh rebuild, bit for bit.

The durability contract: at any moment a session can be killed, and a
new process that loads the latest snapshot and replays the write-ahead
log tail must reach a state whose engine tensors and LEWIS scores are
*bit-identical* to a session rebuilt from scratch over the same final
data.  Counts are integers and scores deterministic functions of them,
so exact equality is the right bar.  Hypothesis drives random update
histories with snapshots (checkpoints) interleaved at arbitrary points.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.store import (
    ArtifactStore,
    checkpoint_session,
    create_tenant,
    restore_session,
    snapshot_session,
)
from repro.utils.exceptions import EstimationError, StoreError

CARDS = {"a": 3, "b": 4, "c": 2}
NAMES = tuple(CARDS)
SIGNATURES = [("a",), ("a", "b"), ("b", "c"), ("a", "b", "c")]


def make_table(rows: list[tuple[int, ...]]) -> Table:
    return Table.from_dict(
        {name: [row[i] for row in rows] for i, name in enumerate(NAMES)},
        domains={name: list(range(card)) for name, card in CARDS.items()},
    )


@pytest.fixture(scope="module")
def trained():
    """One small serialisable model over the synthetic schema."""
    rng = np.random.default_rng(0)
    n = 400
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 4, n).tolist(),
        "c": rng.integers(0, 2, n).tolist(),
    }
    rows["y"] = [
        int(a + b + c >= 3) for a, b, c in zip(rows["a"], rows["b"], rows["c"])
    ]
    table = Table.from_dict(
        rows,
        domains={
            "a": [0, 1, 2], "b": [0, 1, 2, 3], "c": [0, 1], "y": [0, 1],
        },
    )
    return fit_table_model("logistic", table, list(NAMES), "y", seed=0)


def build_lewis(trained, table: Table) -> Lewis:
    return Lewis(
        trained,
        data=table,
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


def row_strategy():
    return st.tuples(*(st.integers(0, CARDS[n] - 1) for n in NAMES))


@st.composite
def histories(draw):
    """Base rows + steps of (insert rows, delete fracs, checkpoint?)."""
    base = draw(st.lists(row_strategy(), min_size=4, max_size=20))
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(row_strategy(), min_size=0, max_size=5),
                st.lists(st.floats(0, 1), min_size=0, max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return base, steps


def warm(session) -> None:
    for signature in SIGNATURES:
        session.lewis.estimator.engine.tensor(signature)


def safe_score(lewis, attribute, value, baseline):
    try:
        return lewis.score(attribute, value, baseline)
    except EstimationError as exc:
        return ("unsupported", str(exc))


class TestKillAndRestore:
    @settings(max_examples=25, deadline=None)
    @given(histories())
    def test_restore_equals_fresh_rebuild(self, tmp_path_factory, trained, case):
        base, steps = case
        tmp = tmp_path_factory.mktemp("store")
        store = ArtifactStore(tmp)
        session = create_tenant(store, "t", build_lewis(trained, make_table(base)))
        warm(session)
        mirror = [list(r) for r in base]
        for inserted, delete_fracs, checkpoint in steps:
            n = len(mirror)
            deleted = sorted({int(f * (n - 1)) for f in delete_fracs}) if n else []
            session.update(
                {
                    "insert": [dict(zip(NAMES, row)) for row in inserted],
                    "delete": deleted,
                }
            )
            keep = [row for i, row in enumerate(mirror) if i not in set(deleted)]
            mirror = keep + [list(r) for r in inserted]
            if checkpoint:
                checkpoint_session(store, session, "t")
        session.close()  # "kill"

        restored = restore_session(store, "t")
        fresh = build_lewis(trained, make_table(mirror))

        assert len(restored.lewis.data) == len(mirror)
        assert np.array_equal(restored.lewis.positive, fresh.positive)
        restored_engine = restored.lewis.estimator.engine
        fresh_engine = fresh.estimator.engine
        for signature in SIGNATURES:
            maintained = restored_engine.tensor(signature)
            rebuilt = fresh_engine.tensor(signature)
            assert np.array_equal(maintained, rebuilt), signature
        # scores: identical contrasts must produce identical floats
        for attribute, value, baseline in (("a", 2, 0), ("b", 3, 1)):
            assert safe_score(restored.lewis, attribute, value, baseline) == (
                safe_score(fresh, attribute, value, baseline)
            )
        # every tensor the restored engine counted equals a fresh recount,
        # and the restored state is the live one, version included
        for key in list(restored_engine._tensors):
            assert np.array_equal(
                restored_engine._tensors.peek(key), fresh_engine.tensor(key)
            ), key
        assert restored.table_version == session.table_version
        assert restored_engine.state_digest() == (
            session.lewis.estimator.engine.state_digest()
        )
        restored.close()


class TestRestoreDetails:
    @pytest.fixture()
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    @pytest.fixture()
    def session(self, store, trained):
        rows = [(i % 3, i % 4, i % 2) for i in range(40)]
        session = create_tenant(store, "t", build_lewis(trained, make_table(rows)))
        warm(session)
        yield session
        session.close()

    def test_restore_matches_tokens(self, store, session):
        snapshot_session(store, session, "t")
        restored = restore_session(store, "t")
        assert restored.fingerprint == session.fingerprint
        assert restored.state_token == session.state_token
        assert restored.table_version == session.table_version
        restored.close()

    def test_replay_continues_state_chain(self, store, session):
        snapshot_session(store, session, "t")
        session.update({"insert": [{"a": 0, "b": 0, "c": 1}]})
        session.update({"delete": [0, 1]})
        restored = restore_session(store, "t")
        assert restored.state_token == session.state_token
        assert len(restored.lewis.data) == len(session.lewis.data)
        restored.close()

    def test_restore_after_post_update_checkpoint_keeps_the_live_token(
        self, store, session, tmp_path
    ):
        import shutil

        session.update({"insert": [{"a": 2, "b": 3, "c": 1}]})
        checkpoint_session(store, session, "t")
        # restore a copy of the store, so the two sessions write two logs
        shutil.copytree(store.root, tmp_path / "copy")
        restored = restore_session(ArtifactStore(tmp_path / "copy"), "t")
        assert restored.table_version == session.table_version == 1
        assert restored.state_token == session.state_token
        for live in (session, restored):
            live.update({"delete": [3]})
        assert restored.table_version == session.table_version == 2
        assert restored.state_token == session.state_token
        assert (
            restored.lewis.estimator.engine.state_digest()
            == session.lewis.estimator.engine.state_digest()
        )
        restored.close()

    def test_sequence_continuity_across_checkpoint_and_process(self, store, session):
        session.update({"insert": [{"a": 1, "b": 1, "c": 1}]})
        checkpoint_session(store, session, "t")  # compacts the log
        session.close()

        second = restore_session(store, "t")
        second.update({"insert": [{"a": 2, "b": 2, "c": 0}]})
        assert second.log.last_seq == 2  # continues past the compacted prefix
        second.close()

        third = restore_session(store, "t")
        assert len(third.lewis.data) == len(second.lewis.data)
        assert third.state_token == second.state_token
        third.close()

    def test_stale_snapshot_with_compacted_gap_refuses_restore(self, store, session):
        """Restoring a snapshot whose covering WAL prefix was compacted
        away must fail loudly, not silently skip the missing deltas."""
        stale_id = snapshot_session(store, session, "t")["snapshot_id"]
        session.update({"insert": [{"a": 0, "b": 0, "c": 0}]})
        session.update({"insert": [{"a": 1, "b": 1, "c": 1}]})
        checkpoint_session(store, session, "t")  # compacts seqs 1-2
        session.update({"insert": [{"a": 2, "b": 2, "c": 1}]})
        with pytest.raises(StoreError, match="compacted"):
            restore_session(store, "t", snapshot_id=stale_id)
        # the latest snapshot restores fine
        latest = restore_session(store, "t")
        assert len(latest.lewis.data) == 43
        latest.close()

    def test_concurrent_update_and_checkpoint_stay_consistent(self, store, session):
        """A checkpoint taken while update traffic is in flight must pair
        its serialized state with the right wal_seq — compaction can
        never drop a delta the snapshot did not capture."""
        import threading

        errors: list = []

        def updater(code: int):
            try:
                for _ in range(5):
                    session.update({"insert": [{"a": code, "b": code, "c": code % 2}]})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def checkpointer():
            try:
                for _ in range(4):
                    checkpoint_session(store, session, "t")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=updater, args=(0,)),
            threading.Thread(target=updater, args=(1,)),
            threading.Thread(target=checkpointer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        session.close()
        restored = restore_session(store, "t")
        assert len(restored.lewis.data) == 50  # 40 + 10 inserts, none lost
        assert restored.table_version == session.table_version
        assert (
            restored.lewis.estimator.engine.state_digest()
            == session.lewis.estimator.engine.state_digest()
        )
        restored.close()

    def test_manifest_with_recourse_warm_still_restores(self, store, session):
        """Older manifests carry solver warm starts under ``recourse_warm``.

        Restore ignores the key: the restored tenant matches the live one
        and answers recourse exactly as it does.
        """
        manifest = snapshot_session(store, session, "t")
        old = {k: v for k, v in manifest.items() if k != "snapshot_id"}
        old["recourse_warm"] = [
            {
                "actionable": ["a", "b"],
                "donors": [{"current": {"a": 0, "b": 0}, "chosen": {"a": 2}}],
            }
        ]
        restored = restore_session(store, "t", store.write_manifest("t", old))
        assert restored.fingerprint == session.fingerprint
        assert restored.state_token == session.state_token
        assert (
            restored.lewis.estimator.engine.state_digest()
            == session.lewis.estimator.engine.state_digest()
        )
        audit = restored.lewis.recourse_audit(["a", "b"], alpha=0.6)
        expected = session.lewis.recourse_audit(["a", "b"], alpha=0.6)
        assert audit["recourses"] == expected["recourses"]
        restored.close()

    def test_manifest_with_engine_blob_still_restores(self, store, session):
        """Older manifests name an ``engine`` blob: a count-tensor archive.

        Restore ignores it and counts from the table, so an archive whose
        counts no longer match the table (same shapes and totals, cells
        moved) changes nothing; ``gc`` keeps the blob while a manifest
        names it.
        """
        session.update({"insert": [{"a": 2, "b": 3, "c": 1}]})
        manifest = checkpoint_session(store, session, "t")
        live = session.lewis.estimator.engine
        wrong = np.roll(live.tensor(("a", "b")), 1, axis=0)
        archive = io.BytesIO()
        meta = {
            "format": 1,
            "version": live.version,
            "n_rows": live.n_rows,
            "alpha": live.alpha,
            "keys": [["a", "b"]],
        }
        np.savez_compressed(
            archive, __meta__=np.array(json.dumps(meta)), tensor_0=wrong
        )
        old = {k: v for k, v in manifest.items() if k != "snapshot_id"}
        old["blobs"] = {**old["blobs"], "engine": store.put_bytes(archive.getvalue())}
        old_id = store.write_manifest("t", old)
        store.gc()
        assert store.has(old["blobs"]["engine"])

        restored = restore_session(store, "t", old_id)
        assert restored.state_token == session.state_token
        assert restored.table_version == session.table_version == 1
        engine = restored.lewis.estimator.engine
        assert engine.state_digest() == live.state_digest()
        assert np.array_equal(engine.tensor(("a", "b")), live.tensor(("a", "b")))
        audit = restored.lewis.recourse_audit(["a", "b"], alpha=0.6)
        expected = session.lewis.recourse_audit(["a", "b"], alpha=0.6)
        assert audit["recourses"] == expected["recourses"]
        restored.close()

    def test_snapshot_depends_on_state_not_reads(self, tmp_path, trained):
        """Two tenants at one state write byte-identical snapshots, though
        only one served an explanation before its checkpoint: the count
        tensors it built are a cache of the table, not stored state."""
        rows = [(i % 3, i % 4, i % 2) for i in range(40)]
        written = []
        for served in (False, True):
            store = ArtifactStore(tmp_path / f"served-{served}")
            live = create_tenant(store, "t", build_lewis(trained, make_table(rows)))
            live.update({"insert": [{"a": 2, "b": 3, "c": 1}], "delete": [0]})
            if served:
                live.explain_global()
                assert live.lewis.estimator.engine.cache_stats().entries
            snapshot_id = checkpoint_session(store, live, "t")["snapshot_id"]
            live.close()
            path = store.root / "manifests" / "t" / f"{snapshot_id}.json"
            objects = sorted(p.name for p in (store.root / "objects").glob("*/*"))
            written.append((path.read_bytes(), objects))
        assert written[0] == written[1]
        blobs = json.loads(written[0][0])["blobs"]
        assert set(blobs) == {"model", "table", "positive"}

    def test_snapshot_manifest_carries_no_solver_state(self, store, session):
        """A snapshot depends on the tenant's data, not on the recourse
        queries it happened to serve before the checkpoint."""
        session.lewis.recourse_audit(["a", "b"], alpha=0.6)
        manifest = snapshot_session(store, session, "t")
        assert "recourse_warm" not in manifest
        assert not any("recourse" in key for key in manifest)

    def test_restore_without_replay_is_bare_snapshot(self, store, session):
        snapshot_session(store, session, "t")
        session.update({"insert": [{"a": 0, "b": 0, "c": 0}]})
        bare = restore_session(store, "t", replay=False)
        assert len(bare.lewis.data) == 40
        bare.close()
        replayed = restore_session(store, "t")
        assert len(replayed.lewis.data) == 41
        replayed.close()

    def test_recreating_an_existing_tenant_is_refused(self, store, session, trained):
        """Re-creating a tenant over its own history would let the next
        checkpoint compact away acknowledged updates the new snapshot
        never contained."""
        session.update({"insert": [{"a": 0, "b": 0, "c": 0}]})
        rows = [(0, 0, 0)] * 10
        with pytest.raises(StoreError, match="already exists"):
            create_tenant(store, "t", build_lewis(trained, make_table(rows)))
        # the logged update is still replayable
        restored = restore_session(store, "t")
        assert len(restored.lewis.data) == 41
        restored.close()

    def test_opaque_callable_cannot_be_snapshotted(self, store):
        def opaque(features: Table) -> np.ndarray:
            return features.codes("a") >= 1

        lewis = Lewis(
            opaque,
            data=make_table([(0, 0, 0), (1, 1, 1), (2, 2, 1)]),
            feature_names=list(NAMES),
            attributes=list(NAMES),
            infer_orderings=False,
        )
        with pytest.raises(StoreError, match="serialisable"):
            create_tenant(store, "t2", lewis)

    def test_snapshot_with_trained_model_round_trips(self, store):
        from repro import load_dataset, train_test_split

        bundle = load_dataset("german", n_rows=300, seed=0)
        train, test = train_test_split(bundle.table, test_fraction=0.3, seed=0)
        trained = fit_table_model(
            "random_forest",
            train,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=5,
            max_depth=5,
        )
        lewis = Lewis(
            trained,
            data=test,
            graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )
        session = create_tenant(
            store, "german", lewis, default_actionable=bundle.actionable
        )
        answer = session.explain_global(max_pairs_per_attribute=4)
        checkpoint_session(store, session, "german")
        session.close()

        restored = restore_session(store, "german")
        again = restored.explain_global(max_pairs_per_attribute=4)
        assert again["result"] == answer["result"]
        assert restored.default_actionable == bundle.actionable
        # orderings were restored, not re-inferred: domains match exactly
        for name in restored.lewis.data.names:
            assert restored.lewis.data.domain(name) == lewis.data.domain(name)
        restored.close()
