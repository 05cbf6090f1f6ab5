"""One delta path: label-level deltas reach the table and its counts once.

A row delta is encoded once (``Table.encode_rows``), its delete indices
are checked against the live table, and the engine folds the encoded
delta into its cached tensors and builds the post-delta table in one
pass.  The state token advances over the delta's codes, so it names the
table change, not its spelling: ``2``, ``2.0`` and ``np.int64(2)`` for
the same category, or repeated and unsorted delete indices, give the
same token, and a session restored from a snapshot taken mid-history
and replayed reaches the same token as the live one.

Hypothesis drives random label-level histories; after every delta the
live table must equal a row mirror, every cached tensor a fresh
engine's, and the token that of a second session fed other spellings
and that of a restore.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fit_table_model
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import ExplainerSession
from repro.store import ArtifactStore, checkpoint_session, create_tenant, restore_session

CARDS = {"a": 3, "b": 4, "c": 2}
NAMES = tuple(CARDS)
SIGNATURES = [("a",), ("a", "b"), ("b", "c"), ("a", "b", "c")]
#: ways a client may spell the integer category ``v``
SPELLINGS = (int, float, np.int64, np.float64)


def make_table(rows) -> Table:
    return Table.from_dict(
        {name: [row[i] for row in rows] for i, name in enumerate(NAMES)},
        domains={name: list(range(card)) for name, card in CARDS.items()},
    )


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(1)
    n = 300
    rows = {name: rng.integers(0, card, n).tolist() for name, card in CARDS.items()}
    rows["y"] = [int(a + b - c >= 2) for a, b, c in zip(rows["a"], rows["b"], rows["c"])]
    table = Table.from_dict(
        rows,
        domains={**{n: list(range(c)) for n, c in CARDS.items()}, "y": [0, 1]},
    )
    return fit_table_model("logistic", table, list(NAMES), "y", seed=0)


def build_lewis(trained, rows) -> Lewis:
    return Lewis(
        trained,
        data=make_table(rows),
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


def warm(session) -> None:
    for signature in SIGNATURES:
        session.lewis.estimator.engine.tensor(signature)


def row_strategy():
    return st.tuples(*(st.integers(0, CARDS[n] - 1) for n in NAMES))


@st.composite
def histories(draw):
    """Base rows plus steps of (inserts with spellings, raw delete picks)."""
    base = draw(st.lists(row_strategy(), min_size=6, max_size=20))
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        row_strategy(),
                        st.tuples(*(st.integers(0, 3) for _ in NAMES)),
                    ),
                    max_size=5,
                ),
                # picks are reduced modulo the live row count, so they
                # repeat and arrive unsorted
                st.lists(st.integers(0, 10**6), max_size=4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    checkpoint_after = draw(st.integers(0, len(steps) - 1))
    return base, steps, checkpoint_after


def spell(row, spellings, shift: int) -> dict:
    return {
        name: SPELLINGS[(s + shift) % len(SPELLINGS)](v)
        for name, v, s in zip(NAMES, row, spellings)
    }


def assert_matches_mirror(session, mirror, trained) -> None:
    data = session.lewis.data
    assert len(data) == len(mirror)
    for i, name in enumerate(NAMES):
        assert data.codes(name).tolist() == [row[i] for row in mirror]
    fresh = build_lewis(trained, mirror)
    assert np.array_equal(session.lewis.positive, fresh.positive)
    engine = session.lewis.estimator.engine
    fresh_engine = fresh.estimator.engine
    assert engine.table.names == fresh_engine.table.names
    for key in list(engine._tensors):
        assert np.array_equal(engine._tensors.peek(key), fresh_engine.tensor(key)), key


@settings(max_examples=20, deadline=None)
@given(histories())
def test_label_history_has_one_table_and_one_name(tmp_path_factory, trained, case):
    base, steps, checkpoint_after = case
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    durable = create_tenant(store, "t", build_lewis(trained, base))
    respelled = ExplainerSession(build_lewis(trained, base))
    assert durable.state_token == respelled.state_token
    warm(durable)
    mirror = [tuple(row) for row in base]
    try:
        for step, (inserts, picks) in enumerate(steps):
            n = len(mirror)
            deletes = [p % n for p in picks] if n else []
            durable.update(
                {
                    "insert": [spell(row, s, 0) for row, s in inserts],
                    "delete": deletes,
                }
            )
            respelled.update(
                {
                    "insert": [spell(row, s, 1) for row, s in inserts],
                    "delete": sorted(set(deletes)),
                }
            )
            gone = set(deletes)
            mirror = [r for i, r in enumerate(mirror) if i not in gone]
            mirror += [tuple(row) for row, _ in inserts]

            assert_matches_mirror(durable, mirror, trained)
            assert respelled.state_token == durable.state_token
            assert respelled.table_version == durable.table_version
            if step == checkpoint_after:
                checkpoint_session(store, durable, "t")
            restored = restore_session(store, "t")
            try:
                assert restored.state_token == durable.state_token
                assert restored.table_version == durable.table_version
                assert_matches_mirror(restored, mirror, trained)
            finally:
                restored.close()
    finally:
        durable.close()
        respelled.close()


class TestOneEncode:
    def test_update_encodes_its_rows_once(self, tmp_path, trained, monkeypatch):
        base = [(i % 3, i % 4, i % 2) for i in range(30)]
        session = create_tenant(ArtifactStore(tmp_path), "t", build_lewis(trained, base))
        calls = []
        encode_rows = Table.encode_rows

        def counting(self, rows):
            calls.append(len(rows))
            return encode_rows(self, rows)

        monkeypatch.setattr(Table, "encode_rows", counting)
        response = session.update(
            {"insert": [{"a": 1, "b": 2, "c": 0}], "delete": [4, 4, 1]}
        )
        session.close()
        assert calls == [1]
        result = response["result"]
        assert (result["inserted"], result["deleted"]) == (1, 2)
        assert result["n_rows"] == result["rows_before"] + 1 - 2

    def test_bad_delete_index_is_refused_before_anything_changes(
        self, tmp_path, trained
    ):
        # 2**70 does not fit an index array: the check must still name it
        # an out-of-range index (HTTP 400), not overflow
        base = [(i % 3, i % 4, i % 2) for i in range(10)]
        durable = create_tenant(ArtifactStore(tmp_path), "t", build_lewis(trained, base))
        plain = ExplainerSession(build_lewis(trained, base))
        for session in (durable, plain):
            token = session.state_token
            for bad in (10, -1, 2**70):
                with pytest.raises(IndexError, match="outside"):
                    session.update(
                        {"insert": [{"a": 0, "b": 0, "c": 0}], "delete": [1, bad]}
                    )
            assert (session.state_token, session.table_version) == (token, 0)
            assert len(session.lewis.data) == 10
            session.close()
        assert durable.log.last_seq == 0


class TestLewisReadsTheEstimator:
    def test_estimator_delta_is_visible_through_lewis(self, trained):
        base = [(i % 3, i % 4, i % 2) for i in range(12)]
        lewis = build_lewis(trained, base)
        inserted = make_table([(2, 3, 1), (0, 0, 0)])
        positive = np.array([True, False])
        lewis.estimator.apply_delta(inserted, positive, deleted_rows=[0, 1])
        engine_table = lewis.estimator.engine.table
        assert len(lewis.data) == len(engine_table) == 12
        for i in range(len(engine_table)):
            row = engine_table.row_codes(i)
            outcome = row.pop(lewis.estimator._outcome)
            assert lewis.data.row_codes(i) == row
            assert bool(lewis.positive[i]) == bool(outcome)
        assert lewis.data.row_codes(0) == dict(zip(NAMES, base[2]))
        assert lewis.positive_rate == float(lewis.positive.mean())
