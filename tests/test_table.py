"""Unit tests for the Table / Column container."""

import numpy as np
import pytest

from repro.data.table import Column, Table
from repro.utils.exceptions import DomainError


class TestColumnConstruction:
    def test_from_values_infers_sorted_domain(self):
        col = Column.from_values("x", [3, 1, 2, 1])
        assert col.categories == (1, 2, 3)
        assert col.codes.tolist() == [2, 0, 1, 0]

    def test_from_values_with_explicit_domain(self):
        col = Column.from_values("x", ["b", "a"], categories=["a", "b", "c"])
        assert col.categories == ("a", "b", "c")
        assert col.codes.tolist() == [1, 0]

    def test_from_values_rejects_value_outside_domain(self):
        with pytest.raises(DomainError):
            Column.from_values("x", ["z"], categories=["a", "b"])

    def test_from_values_unsortable_values_keep_first_seen_order(self):
        col = Column.from_values("x", [None, "a", None])
        assert col.categories == (None, "a")

    def test_from_codes_roundtrip(self):
        col = Column.from_codes("x", np.array([0, 2, 1]), ["lo", "mid", "hi"])
        assert col.decode() == ["lo", "hi", "mid"]

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Column.from_codes("x", np.array([0, 5]), ["a", "b"])

    def test_negative_codes_rejected(self):
        with pytest.raises(DomainError):
            Column.from_codes("x", np.array([-1]), ["a", "b"])

    def test_two_dimensional_codes_rejected(self):
        with pytest.raises(ValueError):
            Column("x", np.zeros((2, 2), dtype=int), ("a",))


class TestColumnOperations:
    def test_len_and_cardinality(self):
        col = Column.from_values("x", [1, 1, 2], categories=[1, 2, 3])
        assert len(col) == 3
        assert col.cardinality == 3

    def test_code_of_known_value(self):
        col = Column.from_values("x", ["a"], categories=["a", "b"])
        assert col.code_of("b") == 1

    def test_code_of_unknown_value_raises(self):
        col = Column.from_values("x", ["a"], categories=["a", "b"])
        with pytest.raises(DomainError):
            col.code_of("zzz")

    def test_value_counts_includes_zero_categories(self):
        col = Column.from_values("x", ["a", "a"], categories=["a", "b"])
        assert col.value_counts() == {"a": 2, "b": 0}

    def test_take_subsets_rows(self):
        col = Column.from_values("x", [10, 20, 30])
        taken = col.take(np.array([2, 0]))
        assert taken.decode() == [30, 10]

    def test_replaced_keeps_domain(self):
        col = Column.from_values("x", [10, 20, 30])
        replaced = col.replaced(np.array([0, 0, 0]))
        assert replaced.decode() == [10, 10, 10]
        assert replaced.categories == col.categories

    def test_renamed(self):
        col = Column.from_values("x", [1]).renamed("y")
        assert col.name == "y"

    def test_with_order_preserves_decoded_values(self):
        col = Column.from_values("x", ["a", "b", "c"], ordered=False)
        reordered = col.with_order(["c", "a", "b"])
        assert reordered.decode() == ["a", "b", "c"]
        assert reordered.categories == ("c", "a", "b")
        assert reordered.ordered

    def test_with_order_requires_permutation(self):
        col = Column.from_values("x", ["a", "b"])
        with pytest.raises(DomainError):
            col.with_order(["a", "z"])


class TestTableBasics:
    def test_from_dict_and_len(self, small_table):
        assert len(small_table) == 8
        assert small_table.n_columns == 3
        assert small_table.names == ["color", "size", "label"]

    def test_duplicate_column_names_rejected(self):
        c = Column.from_values("x", [1])
        with pytest.raises(ValueError):
            Table([c, c])

    def test_length_mismatch_rejected(self):
        a = Column.from_values("a", [1, 2])
        b = Column.from_values("b", [1])
        with pytest.raises(ValueError):
            Table([a, b])

    def test_column_lookup_and_getitem(self, small_table):
        assert small_table.column("size") is small_table["size"]

    def test_unknown_column_raises_with_available(self, small_table):
        with pytest.raises(KeyError, match="available"):
            small_table.column("nope")

    def test_contains(self, small_table):
        assert "color" in small_table
        assert "nope" not in small_table

    def test_row_decoding(self, small_table):
        assert small_table.row(0) == {"color": "red", "size": 0, "label": "no"}

    def test_row_codes(self, small_table):
        assert small_table.row_codes(1) == {"color": 2, "size": 1, "label": 1}

    def test_domain(self, small_table):
        assert small_table.domain("label") == ("no", "yes")

    def test_unordered_flag_respected(self, small_table):
        assert not small_table.column("color").ordered
        assert small_table.column("size").ordered


class TestTableTransforms:
    def test_codes_matrix_shape_and_order(self, small_table):
        m = small_table.codes_matrix(["size", "label"])
        assert m.shape == (8, 2)
        assert m[0].tolist() == [0, 0]

    def test_codes_matrix_empty_names(self, small_table):
        assert small_table.codes_matrix([]).shape == (8, 0)

    def test_take(self, small_table):
        sub = small_table.take(np.array([0, 7]))
        assert len(sub) == 2
        assert sub.row(1)["color"] == "blue"

    def test_take_empty_list_keeps_columns_and_domains(self, small_table):
        empty = small_table.take([])
        assert len(empty) == 0
        assert empty.names == small_table.names
        for name in small_table.names:
            assert empty.domain(name) == small_table.domain(name)
            assert empty.column(name).ordered == small_table.column(name).ordered

    def test_take_repeated_list_index(self, small_table):
        sub = small_table.take([0, 0])
        assert len(sub) == 2
        assert sub.row(0) == sub.row(1) == small_table.row(0)

    def test_take_refuses_float_indices(self, small_table):
        with pytest.raises(IndexError):
            small_table.take(np.array([0.0, 1.0]))

    def test_mask_and_filter(self, small_table):
        mask = small_table.mask(color="red")
        assert mask.sum() == 3
        filtered = small_table.filter(color="red", label="yes")
        assert len(filtered) == 2

    def test_select_reorders(self, small_table):
        sel = small_table.select(["label", "color"])
        assert sel.names == ["label", "color"]

    def test_drop(self, small_table):
        assert small_table.drop(["label"]).names == ["color", "size"]

    def test_with_column_replaces_by_name(self, small_table):
        new = Column.from_codes("size", np.zeros(8, dtype=int), [0, 1, 2])
        updated = small_table.with_column(new)
        assert set(updated.codes("size")) == {0}
        assert updated.names == small_table.names

    def test_sample_without_replacement(self, small_table, rng):
        sampled = small_table.sample(4, rng)
        assert len(sampled) == 4

    def test_to_rows_roundtrip(self, small_table):
        rows = small_table.to_rows()
        rebuilt = Table.from_dict(
            {name: [r[name] for r in rows] for name in small_table.names},
            domains={name: small_table.domain(name) for name in small_table.names},
        )
        for name in small_table.names:
            assert rebuilt.codes(name).tolist() == small_table.codes(name).tolist()
