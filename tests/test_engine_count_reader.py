"""The engine's one count reader: the rows case against the dense case.

``ContingencyEngine._counts_nd`` answers from the cached dense tensor
when the queried columns are disjoint and their joint fits ``max_cells``,
and counts the matching table rows otherwise.  An engine whose
``max_cells`` sits between the largest free grid and the smallest
queried joint answers every query from the rows, so it must read the
same bits as a default engine, before and after a delta.  Overlapping
event, treatment, weight and context sets are held to the row-scan
oracle of Eq. 4 in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fairness import group_outcome_counts
from repro.data.table import Table
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import EstimationError

from oracles import adjusted_one

TOL = 1e-12

NAMES = ("W", "X", "Y", "Z")


def make_table(rng: np.random.Generator, n_rows: int, cards: dict) -> Table:
    codes = {name: rng.integers(0, cards[name], size=n_rows) for name in NAMES}
    domains = {name: list(range(cards[name])) for name in NAMES}
    return Table.from_codes(codes, domains)


def answer(call):
    """A query's value, or the type of the error it raised."""
    try:
        return call()
    except (EstimationError, ValueError) as exc:
        return type(exc)


def assert_same(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    else:
        assert a == b


def codes_for(rng, cards: dict, names) -> dict:
    return {n: int(rng.integers(0, cards[n])) for n in names}


def queries(rng: np.random.Generator, cards: dict) -> list:
    """Query thunks whose every count reads a joint larger than ``Z``'s domain.

    ``Z`` (2 or 3 codes) is the small engine's ``max_cells`` and the only
    free grid any query asks for.  Every count touches ``Z`` and another
    column, or two columns other than ``Z`` (at least 4 cells), so each
    joint is over the budget while each free grid fits it.
    """
    others = ["W", "X", "Y"]
    out = []
    for _ in range(6):
        size = int(rng.integers(2, 4))
        pinned = [str(n) for n in rng.choice(others, size=size, replace=False)]
        conditions = codes_for(rng, cards, pinned[: int(rng.integers(1, 4))] + ["Z"])
        out.append(lambda e, c=conditions: e.count(c))
        events = [codes_for(rng, cards, pinned[:1]) for _ in range(4)]
        givens = [codes_for(rng, cards, pinned[1:] + ["Z"]) for _ in range(4)]
        out.append(lambda e, ev=events, gv=givens: e.probabilities(ev, gv))
        out.append(
            lambda e, ev=events, gv=givens: e.probabilities(ev, gv, default=0.5)
        )
        out.append(
            lambda e, g=codes_for(rng, cards, pinned): e.group_weights(["Z"], g)
        )
        treatment_col, weight_col, context_col = map(str, rng.permutation(others))
        event = codes_for(rng, cards, [str(rng.choice([weight_col, context_col]))])
        treatments = [codes_for(rng, cards, [treatment_col]) for _ in range(3)]
        weights = [codes_for(rng, cards, [weight_col]) for _ in range(3)]
        context = codes_for(rng, cards, [context_col])
        out.append(
            lambda e, ev=event, t=treatments, w=weights, k=context: (
                e.adjusted_probabilities(ev, t, ["Z"], w, k)
            )
        )
    return out


scenario = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=5, max_value=120),  # rows
    st.tuples(*[st.integers(min_value=2, max_value=4) for _ in "WXY"]),  # cards
    st.integers(min_value=2, max_value=3),  # Z
)


@given(scenario)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rows_case_reads_the_same_bits_as_the_dense_case(params):
    seed, n_rows, card_tuple, z_card = params
    cards = dict(zip(NAMES, card_tuple + (z_card,)))
    rng = np.random.default_rng(seed)
    table = make_table(rng, n_rows, cards)
    dense = ContingencyEngine(table)
    rows = ContingencyEngine(table, max_cells=cards["Z"])
    thunks = queries(rng, cards)
    for call in thunks:
        assert_same(answer(lambda: call(rows)), answer(lambda: call(dense)))
    n_deleted = int(rng.integers(0, min(n_rows, 4)))
    deleted = rng.choice(n_rows, size=n_deleted, replace=False)
    inserted = make_table(rng, int(rng.integers(0, 6)), cards)
    for engine in (dense, rows):
        engine.apply_delta(inserted, deleted)
    for call in thunks:
        assert_same(answer(lambda: call(rows)), answer(lambda: call(dense)))
    # Every query above was answered from the rows: no tensor was built.
    assert rows.cache_stats().entries == 0


def test_rows_case_counts_a_column_pinned_twice():
    """A pin and a free axis on one column count only the pinned rows."""
    rng = np.random.default_rng(3)
    cards = {"W": 2, "X": 3, "Y": 2, "Z": 2}
    table = make_table(rng, 200, cards)
    engine = ContingencyEngine(table)
    positives, totals = group_outcome_counts(engine, "X", "Y", {"X": 1})
    x = table.codes("X")
    y = table.codes("Y")
    assert totals.tolist() == [0, int((x == 1).sum()), 0]
    assert positives.tolist() == [0, int(((x == 1) & (y == 1)).sum()), 0]
    counts = engine._counts_nd({}, ["X", "X"], np.array([[1, 1], [1, 2]]), ["Y"])
    assert counts.tolist() == [
        [int(((x == 1) & (y == 0)).sum()), int(((x == 1) & (y == 1)).sum())],
        [0, 0],
    ]


def test_free_grid_over_the_budget_raises():
    rng = np.random.default_rng(5)
    engine = ContingencyEngine(
        make_table(rng, 50, {"W": 4, "X": 4, "Y": 2, "Z": 2}), max_cells=8
    )
    with pytest.raises(ValueError, match=r"\['W', 'X'\] has 16 cells"):
        engine.group_weights(["W", "X"], {"Y": 0})


overlap_scenario = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=20, max_value=150),  # rows
    st.tuples(*[st.integers(min_value=2, max_value=4) for _ in NAMES]),  # cards
    st.sampled_from([0.0, 0.5]),  # alpha
)


def draw_subset(rng, size_lo: int, size_hi: int) -> list[str]:
    size = int(rng.integers(size_lo, size_hi + 1))
    return sorted(str(n) for n in rng.choice(NAMES, size=size, replace=False))


@given(overlap_scenario)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_overlapping_sets_match_the_row_scan_oracle(params):
    seed, n_rows, card_tuple, alpha = params
    cards = dict(zip(NAMES, card_tuple))
    rng = np.random.default_rng(seed)
    engine = ContingencyEngine(make_table(rng, n_rows, cards), alpha=alpha)
    event = codes_for(rng, cards, draw_subset(rng, 1, 2))
    context = codes_for(rng, cards, draw_subset(rng, 0, 2))
    adjustment = draw_subset(rng, 1, 2)
    treatments, weights = [], []
    for _ in range(2):  # two key-set groups, three queries each
        tcols, wcols = draw_subset(rng, 0, 2), draw_subset(rng, 0, 2)
        for _ in range(3):
            treatments.append(codes_for(rng, cards, tcols))
            weights.append(codes_for(rng, cards, wcols))
    held = set(adjustment) - set(context)
    pinned = held & set(event).union(*treatments)
    if pinned:
        with pytest.raises(ValueError, match="event or treatment columns"):
            engine.adjusted_probabilities(
                event, treatments, adjustment, weights, context
            )
        return
    try:
        batch = engine.adjusted_probabilities(
            event, treatments, adjustment, weights, context
        )
    except EstimationError:
        with pytest.raises(EstimationError):
            for treatment, weight in zip(treatments, weights):
                adjusted_one(engine, event, treatment, adjustment, weight, context)
        return
    for value, treatment, weight in zip(batch, treatments, weights):
        scalar = adjusted_one(engine, event, treatment, adjustment, weight, context)
        assert abs(float(value) - scalar) <= TOL
