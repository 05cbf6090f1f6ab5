"""Property-based tests for recourse soundness and encoding roundtrips."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import cohort

from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.encoding import OneHotEncoder
from repro.data.splits import train_test_split
from repro.data.table import Column, Table
from repro.utils.exceptions import RecourseInfeasibleError


def _make_recourse_setup(card_a, card_b, threshold_frac, seed):
    """Two ordinal attributes, outcome = 1{a + b >= t}, dense support."""
    rng = np.random.default_rng(seed)
    n = 3_000
    a = rng.integers(0, card_a, n)
    b = rng.integers(0, card_b, n)
    t = max(1, int(threshold_frac * (card_a + card_b - 2)))
    table = Table(
        [
            Column.from_codes("a", a, tuple(range(card_a))),
            Column.from_codes("b", b, tuple(range(card_b))),
        ]
    )
    positive = (a + b) >= t
    if positive.all() or not positive.any():
        return None
    return table, positive, t


recourse_scenarios = st.tuples(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.3, max_value=0.8),
    st.integers(min_value=0, max_value=10_000),
)


@given(recourse_scenarios)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recourse_solution_is_sound_and_minimal_cost_bounded(params):
    """Every returned recourse satisfies its own sufficiency claim and the
    action set never exceeds one change per actionable attribute."""
    setup = _make_recourse_setup(*params)
    if setup is None:
        return
    table, positive, _t = setup
    estimator = ScoreEstimator(table, positive)
    solver = RecourseSolver(estimator, ["a", "b"])
    row = cohort(table, [{"a": 0, "b": 0}])
    try:
        recourse = solver.solve_batch(row, alpha=0.6)[0]
    except RecourseInfeasibleError:
        return
    assert recourse.estimated_sufficiency >= 0.6 - 1e-9
    attributes = [action.attribute for action in recourse.actions]
    assert len(attributes) == len(set(attributes))
    assert recourse.total_cost >= 0
    for action in recourse.actions:
        assert action.new_value != action.current_value


@given(recourse_scenarios)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recourse_cost_monotone_in_alpha(params):
    """A stricter sufficiency target never costs less."""
    setup = _make_recourse_setup(*params)
    if setup is None:
        return
    table, positive, _t = setup
    estimator = ScoreEstimator(table, positive)
    solver = RecourseSolver(estimator, ["a", "b"])
    row = cohort(table, [{"a": 0, "b": 0}])
    costs = []
    for alpha in (0.4, 0.7):
        try:
            costs.append(solver.solve_batch(row, alpha=alpha)[0].total_cost)
        except RecourseInfeasibleError:
            costs.append(np.inf)
    assert costs[1] >= costs[0] - 1e-9


table_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols),
        st.lists(
            st.integers(min_value=2, max_value=4), min_size=n_cols, max_size=n_cols
        ),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
)


@given(table_strategy)
@settings(max_examples=30, deadline=None)
def test_onehot_roundtrip_property(params):
    """Every row's one-hot block decodes back to its original code."""
    n_cols, cards, n_rows, seed = params
    rng = np.random.default_rng(seed)
    table = Table(
        [
            Column.from_codes(
                f"c{i}", rng.integers(0, card, n_rows), tuple(range(card))
            )
            for i, card in enumerate(cards)
        ]
    )
    enc = OneHotEncoder().fit(table)
    X = enc.transform(table)
    for i, card in enumerate(cards):
        block = X[:, enc.feature_slice(f"c{i}")]
        assert np.array_equal(np.argmax(block, axis=1), table.codes(f"c{i}"))
        assert np.array_equal(block.sum(axis=1), np.ones(n_rows))


@given(
    st.integers(min_value=10, max_value=200),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_split_partition_property(n_rows, fraction, seed):
    """Train and test always partition the rows exactly."""
    rng = np.random.default_rng(seed)
    table = Table(
        [Column.from_codes("x", rng.integers(0, 3, n_rows), (0, 1, 2))]
    )
    train, test = train_test_split(table, test_fraction=fraction, seed=seed)
    assert len(train) + len(test) == n_rows
    assert len(test) == int(round(n_rows * fraction))
