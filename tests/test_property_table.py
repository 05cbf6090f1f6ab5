"""Property-based tests for the tabular container (hypothesis)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.data.table import Column, Table

#: strategy: a small column as (cardinality, codes)
columns = st.integers(min_value=1, max_value=5).flatmap(
    lambda card: st.lists(
        st.integers(min_value=0, max_value=card - 1), min_size=1, max_size=60
    ).map(lambda codes: (card, codes))
)


@given(columns)
def test_decode_encode_roundtrip(data):
    card, codes = data
    categories = [f"v{i}" for i in range(card)]
    col = Column.from_codes("x", np.array(codes), categories)
    rebuilt = Column.from_values("x", col.decode(), categories)
    assert rebuilt.codes.tolist() == codes


@given(columns)
def test_value_counts_total(data):
    card, codes = data
    col = Column.from_codes("x", np.array(codes), [f"v{i}" for i in range(card)])
    assert sum(col.value_counts().values()) == len(codes)


@given(columns, st.randoms(use_true_random=False))
def test_with_order_never_changes_decoded_values(data, rnd):
    card, codes = data
    categories = [f"v{i}" for i in range(card)]
    col = Column.from_codes("x", np.array(codes), categories, ordered=False)
    perm = list(categories)
    rnd.shuffle(perm)
    assert col.with_order(perm).decode() == col.decode()


@given(columns, st.data())
def test_take_preserves_values(data, draw):
    card, codes = data
    col = Column.from_codes("x", np.array(codes), list(range(card)))
    indices = draw.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(codes) - 1),
            min_size=0,
            max_size=20,
        )
    )
    taken = col.take(np.array(indices, dtype=int))
    assert taken.decode() == [col.decode()[i] for i in indices]


@given(columns)
def test_mask_filter_consistency(data):
    card, codes = data
    table = Table([Column.from_codes("x", np.array(codes), list(range(card)))])
    for value in range(card):
        mask = table.mask(x=value)
        filtered = table.filter(x=value)
        assert int(mask.sum()) == len(filtered)
        assert all(v == value for v in filtered.column("x").decode())
