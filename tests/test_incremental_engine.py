"""Incremental maintenance parity: ``apply_delta`` vs fresh rebuild.

The serving layer's correctness rests on one invariant: after any
sequence of row insertions/deletions folded in via
``ContingencyEngine.apply_delta``, every cached count tensor — and hence
every probability and score — is *bit-identical* to a fresh engine built
over the post-delta table.  Counts are integers, so exact equality is
the right bar (no tolerance).  Hypothesis drives random delta sequences;
directed tests cover the empty-delta and delete-all edges plus the
validation guards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import ScoreEstimator
from repro.data.table import Column, Table
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import EstimationError

CARDS = {"a": 3, "b": 4, "c": 2}
NAMES = tuple(CARDS)
SIGNATURES = [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("a", "b", "c")]


def make_table(codes: dict[str, list[int]]) -> Table:
    return Table(
        Column.from_codes(name, np.array(codes[name], dtype=np.int64), range(CARDS[name]))
        for name in NAMES
    )


def row_strategy():
    return st.tuples(*(st.integers(0, CARDS[n] - 1) for n in NAMES))


def rows_to_codes(rows: list[tuple[int, ...]]) -> dict[str, list[int]]:
    return {name: [row[i] for row in rows] for i, name in enumerate(NAMES)}


@st.composite
def delta_sequences(draw):
    """A base table plus a sequence of (insert rows, delete fractions)."""
    base = draw(st.lists(row_strategy(), min_size=1, max_size=25))
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(row_strategy(), min_size=0, max_size=8),
                st.lists(st.floats(0, 1), min_size=0, max_size=6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return base, steps


class TestDeltaParity:
    @settings(max_examples=60, deadline=None)
    @given(delta_sequences())
    def test_tensor_and_probability_parity(self, case):
        base, steps = case
        mirror = [list(r) for r in base]
        engine = ContingencyEngine(make_table(rows_to_codes(base)))
        # Warm every signature so apply_delta must maintain them all.
        for signature in SIGNATURES:
            engine.tensor(signature)
        for inserted, delete_fracs in steps:
            n = len(mirror)
            deleted = sorted({int(f * (n - 1)) for f in delete_fracs}) if n else []
            engine.apply_delta(
                inserted_rows=make_table(rows_to_codes(inserted)),
                deleted_rows=deleted or None,
            )
            keep = [row for i, row in enumerate(mirror) if i not in set(deleted)]
            mirror = keep + [list(r) for r in inserted]

            fresh = ContingencyEngine(make_table(rows_to_codes(mirror)))
            assert engine.n_rows == len(mirror)
            for signature in SIGNATURES:
                maintained = engine.tensor(signature)
                rebuilt = fresh.tensor(signature)
                assert maintained.dtype == rebuilt.dtype
                assert np.array_equal(maintained, rebuilt), signature
            if mirror:
                for name in NAMES:
                    for code in range(CARDS[name]):
                        assert engine.probability({name: code}) == fresh.probability(
                            {name: code}
                        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(row_strategy(), min_size=2, max_size=20))
    def test_score_parity_after_delta(self, rows):
        """ScoreEstimator scores match a fresh estimator bit-for-bit."""
        table = make_table(rows_to_codes(rows)).drop(["c"])
        positive = np.array([r[2] == 1 for r in rows])
        est = ScoreEstimator(table, positive)
        for signature in (("a",), ("b",), ("a", "b")):  # warm tensors
            est.engine.tensor(tuple(sorted((*signature, est._outcome))))
        ins = Table(
            Column.from_codes(n, np.array([0, 1], dtype=np.int64), range(CARDS[n]))
            for n in ("a", "b")
        )
        est.apply_delta(ins, np.array([True, False]), deleted_rows=[0])
        fresh = ScoreEstimator(est._features, est._positive)

        def safe_scores(estimator, treatment, baseline):
            try:
                return estimator.scores(treatment, baseline)
            except EstimationError as exc:
                return ("unsupported", str(exc))

        for treatment, baseline in [({"a": 2}, {"a": 0}), ({"b": 3}, {"b": 1})]:
            assert safe_scores(est, treatment, baseline) == safe_scores(
                fresh, treatment, baseline
            )


class TestDeltaEdges:
    def test_empty_delta_is_noop(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 1, 0), (2, 3, 1)])))
        engine.tensor(("a", "b"))
        before = engine.tensor(("a", "b")).copy()
        assert engine.apply_delta() == 0
        assert engine.apply_delta(
            inserted_rows=make_table(rows_to_codes([])), deleted_rows=[]
        ) == 0
        assert engine.version == 0
        assert np.array_equal(engine.tensor(("a", "b")), before)

    def test_delete_all_rows(self):
        rows = [(0, 1, 0), (2, 3, 1), (1, 0, 1)]
        engine = ContingencyEngine(make_table(rows_to_codes(rows)))
        for signature in SIGNATURES:
            engine.tensor(signature)
        version = engine.apply_delta(deleted_rows=[0, 1, 2])
        assert version == 1
        assert engine.n_rows == 0
        for signature in SIGNATURES:
            assert engine.tensor(signature).sum() == 0
        with pytest.raises(EstimationError):
            engine.probability({"a": 0})
        # The emptied engine accepts new rows and recovers exactly.
        engine.apply_delta(inserted_rows=make_table(rows_to_codes(rows)))
        fresh = ContingencyEngine(make_table(rows_to_codes(rows)))
        for signature in SIGNATURES:
            assert np.array_equal(engine.tensor(signature), fresh.tensor(signature))

    def test_version_bumps_once_per_delta(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 0, 0)])))
        assert engine.version == 0
        engine.apply_delta(inserted_rows=make_table(rows_to_codes([(1, 1, 1)])))
        assert engine.version == 1
        engine.apply_delta(deleted_rows=[0])
        assert engine.version == 2

    def test_rejects_partial_schema(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 0, 0)])))
        with pytest.raises(ValueError, match="full schema"):
            engine.apply_delta(
                inserted_rows=make_table(rows_to_codes([(1, 0, 0)])).drop(["c"])
            )
        assert engine.version == 0 and engine.n_rows == 1

    def test_rejects_bad_delete_index(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 0, 0)])))
        with pytest.raises(IndexError):
            engine.apply_delta(deleted_rows=[5])

    def test_rejects_changed_domain(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 0, 0)])))
        other = Table(
            [Column.from_codes("a", np.array([0]), range(7))]
            + [
                Column.from_codes(n, np.array([0]), range(CARDS[n]))
                for n in ("b", "c")
            ]
        )
        with pytest.raises(ValueError, match="domain"):
            engine.apply_delta(inserted_rows=other)


class TestTableDeltaHooks:
    def test_encode_rows_then_one_pass_delta(self):
        table = make_table(rows_to_codes([(0, 1, 0), (2, 3, 1)]))
        rows = [{"a": 1, "b": 0, "c": 1}, {"a": 2.0, "b": np.int64(2), "c": 0}]
        encoded = table.encode_rows(rows)
        assert isinstance(encoded, Table)
        assert encoded.names == table.names
        assert {n: encoded.codes(n).tolist() for n in NAMES} == {
            "a": [1, 2], "b": [0, 2], "c": [1, 0]
        }
        assert all(encoded.domain(n) == table.domain(n) for n in NAMES)
        engine = ContingencyEngine(table)
        engine.apply_delta(inserted_rows=encoded, deleted_rows=[0, 0])
        after = engine.table
        assert len(after) == 3
        assert after.row(0) == table.row(1)
        assert after.row(1) == encoded.row(0) and after.row(2) == encoded.row(1)

    def test_encode_rows_requires_full_schema(self):
        from repro.utils.exceptions import DomainError

        table = make_table(rows_to_codes([(0, 1, 0)]))
        with pytest.raises(DomainError, match="missing column"):
            table.encode_rows([{"a": 1}])

    def test_schema_fingerprint_content_independent(self):
        t1 = make_table(rows_to_codes([(0, 1, 0)]))
        t2 = make_table(rows_to_codes([(2, 3, 1), (1, 1, 1)]))
        assert t1.schema_fingerprint() == t2.schema_fingerprint()
        assert t1.schema_fingerprint() != t1.drop(["c"]).schema_fingerprint()


class TestEngineStats:
    def test_stats_shape_and_counters(self):
        engine = ContingencyEngine(make_table(rows_to_codes([(0, 1, 0), (1, 2, 1)])))
        engine.tensor(("a",))
        engine.tensor(("a",))
        stats = engine.cache_stats()
        for key in ("name", "entries", "bytes", "hits", "misses", "evictions"):
            assert key in stats.as_dict()
        assert stats.name == "tensor"
        assert stats.entries == 1
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.bytes > 0
        assert engine.n_rows == 2 and engine.version == 0

    def test_byte_budget_evicts(self):
        engine = ContingencyEngine(
            make_table(rows_to_codes([(0, 1, 0), (1, 2, 1)])), max_bytes=0
        )
        engine.tensor(("a",))
        stats = engine.cache_stats()
        assert stats.entries == 0
        assert stats.evictions == 1
        # Queries still answer correctly without the cache.
        assert engine.count({"a": 0}) == 1
