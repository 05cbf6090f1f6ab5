"""Property tests: the cohort fast paths equal the scalar loops exactly.

The batched local-explanation pipeline (``local_score_arrays`` →
``build_local_explanations_batch``) and the deduplicated batch recourse
solver (``RecourseSolver.solve_batch``) must agree with one-row-at-a-time
evaluation (the oracles of ``tests/oracles.py`` and one-row cohorts) across
random tables, diagrams present/absent, and positive/negative outcomes —
the same 1e-12 contract ``tests/test_engine_parity.py`` enforces for the
frequency engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.causal.graph import CausalDiagram
from repro.core.explanations import build_local_explanations_batch
from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.utils.exceptions import RecourseInfeasibleError

from oracles import (
    local_context,
    local_explanation_scalar,
    local_probability,
    local_scores,
)

TOL = 1e-12

NAMES = ("W", "X", "Y", "Z")

DIAGRAMS = (
    None,
    CausalDiagram([("W", "X"), ("W", "Y"), ("X", "Y")], nodes=NAMES),
    CausalDiagram([("Z", "X"), ("Z", "W"), ("X", "W")], nodes=NAMES),
    CausalDiagram([("W", "X"), ("X", "Y"), ("Y", "Z")], nodes=NAMES),
)


def make_table(seed: int, n_rows: int, cards: tuple[int, ...]) -> Table:
    rng = np.random.default_rng(seed)
    codes = {
        name: rng.integers(0, card, size=n_rows)
        for name, card in zip(NAMES, cards)
    }
    domains = {name: list(range(card)) for name, card in zip(NAMES, cards)}
    return Table.from_codes(codes, domains)


def make_estimator(
    seed: int, n_rows: int, cards: tuple[int, ...], diagram_index: int
) -> ScoreEstimator:
    table = make_table(seed, n_rows, cards)
    rng = np.random.default_rng(seed + 1)
    weights = rng.normal(size=len(NAMES))
    score = sum(w * table.codes(n) for w, n in zip(weights, NAMES))
    positive = score >= np.median(score)
    return ScoreEstimator(table, positive, diagram=DIAGRAMS[diagram_index])


scenario = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=20, max_value=120),  # rows
    st.tuples(*[st.integers(min_value=2, max_value=4) for _ in NAMES]),  # cards
    st.integers(min_value=0, max_value=len(DIAGRAMS) - 1),  # diagram
    st.integers(min_value=1, max_value=12),  # cohort size
)


def cohort_indices(seed: int, n_rows: int, size: int) -> list[int]:
    rng = np.random.default_rng(seed + 13)
    return sorted(int(i) for i in rng.choice(n_rows, size=size, replace=False))


@given(scenario)
# Regression: this example violated the 1e-12 contract by 1.6e-11 before the
# outcome model switched to a gathered-coefficient logit whose accumulation
# order is batch-size independent (BLAS gemm vs dot reorder sums by ~1e-16,
# amplified by the necessity formula's division by a small probability).
@example((2, 71, (2, 2, 4, 3), 0, 7))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_local_score_arrays_equal_scalar_local_scores(params):
    seed, n_rows, cards, diagram_index, size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    features = estimator.table.drop([estimator._outcome])
    indices = cohort_indices(seed, n_rows, min(size, n_rows))
    rows = [features.row_codes(i) for i in indices]
    arrays = estimator.local_score_arrays(features.take(indices), NAMES)
    for name in NAMES:
        got = arrays[name]
        card = cards[NAMES.index(name)]
        assert got.probabilities.shape == (len(rows), card)
        for i, row in enumerate(rows):
            current = int(row[name])
            assert got.current[i] == current
            context = local_context(estimator, name, row)
            for value in range(card):
                probe = local_probability(estimator, name, value, context)
                assert abs(got.probabilities[i, value] - probe) <= TOL
                if value == current:
                    assert got.necessity[i, value] == 0.0
                    assert got.sufficiency[i, value] == 0.0
                    continue
                hi, lo = max(value, current), min(value, current)
                triple = local_scores(estimator, name, hi, lo, context)
                assert abs(got.necessity[i, value] - triple.necessity) <= TOL
                assert abs(got.sufficiency[i, value] - triple.sufficiency) <= TOL
                assert (
                    abs(
                        got.necessity_sufficiency[i, value]
                        - triple.necessity_sufficiency
                    )
                    <= TOL
                )


@given(scenario)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_local_explanations_batch_equal_scalar_loop(params):
    seed, n_rows, cards, diagram_index, size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    features = estimator.table.drop([estimator._outcome])
    indices = cohort_indices(seed, n_rows, min(size, n_rows))
    rows = [features.row_codes(i) for i in indices]
    # Mixed cohort: half explained as positive, half as negative outcomes.
    outcomes = [bool(estimator._positive[i]) for i in indices]
    batched = build_local_explanations_batch(
        estimator, features.take(indices), outcomes, NAMES
    )
    for row, outcome, fast in zip(rows, outcomes, batched):
        slow = local_explanation_scalar(estimator, row, outcome, NAMES)
        assert fast.outcome_positive == slow.outcome_positive
        assert list(fast.individual.items()) == list(slow.individual.items())
        assert len(fast.contributions) == len(slow.contributions)
        for a, b in zip(fast.contributions, slow.contributions):
            assert a.attribute == b.attribute
            assert a.value == b.value
            assert abs(a.positive - b.positive) <= TOL
            assert abs(a.negative - b.negative) <= TOL
            assert a.positive_foil == b.positive_foil
            assert a.negative_foil == b.negative_foil


@given(scenario)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_solve_batch_equals_scalar_solve_loop(params):
    seed, n_rows, cards, diagram_index, size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    features = estimator.table.drop([estimator._outcome])
    solver = RecourseSolver(estimator, actionable=["X", "Y"])
    # A second solver, so the one-row calls solve rather than hit the
    # batch's memo.
    scalar = RecourseSolver(estimator, actionable=["X", "Y"])
    indices = cohort_indices(seed, n_rows, min(size, n_rows))
    alpha = 0.6
    batched = solver.solve_batch(
        features.take(indices), alpha=alpha, on_infeasible="none"
    )
    for index, fast in zip(indices, batched):
        try:
            slow = scalar.solve_batch(features.take([index]), alpha=alpha)[0]
        except RecourseInfeasibleError:
            assert fast is None
            continue
        assert fast is not None
        assert [
            (a.attribute, a.current_value, a.new_value, a.cost)
            for a in fast.actions
        ] == [
            (a.attribute, a.current_value, a.new_value, a.cost)
            for a in slow.actions
        ]
        assert abs(fast.total_cost - slow.total_cost) <= TOL
        assert abs(fast.estimated_sufficiency - slow.estimated_sufficiency) <= TOL
        assert abs(fast.estimated_probability - slow.estimated_probability) <= TOL
        assert abs(fast.threshold - slow.threshold) <= TOL


def test_solve_batch_on_infeasible_raise_matches_scalar():
    """In "raise" mode the first infeasible row aborts, as the loop would."""
    estimator = make_estimator(3, 80, (2, 2, 2, 2), 0)
    features = estimator.table.drop([estimator._outcome])
    solver = RecourseSolver(estimator, actionable=["X"])
    rows = features.take(np.arange(60))
    alpha = 0.999
    scalar_fails = False
    for i in range(len(rows)):
        try:
            solver.solve_batch(rows.take([i]), alpha=alpha)
        except RecourseInfeasibleError:
            scalar_fails = True
            break
    if scalar_fails:
        with pytest.raises(RecourseInfeasibleError):
            solver.solve_batch(rows, alpha=alpha, on_infeasible="raise")
    else:
        assert all(
            r is not None
            for r in solver.solve_batch(rows, alpha=alpha, on_infeasible="none")
        )


def test_solve_batch_memoises_by_signature():
    """A second batch at the same alpha re-serves memoised solutions."""
    estimator = make_estimator(5, 100, (2, 3, 2, 2), 1)
    features = estimator.table.drop([estimator._outcome])
    solver = RecourseSolver(estimator, actionable=["X", "Y"])
    rows = features.take(np.arange(40))
    first = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
    stats = solver.solution_memo_stats()
    assert 0 < stats["solved_signatures"] <= 40
    second = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
    assert solver.solution_memo_stats()["solved_signatures"] == stats[
        "solved_signatures"
    ]
    for a, b in zip(first, second):
        if a is None:
            assert b is None
        else:
            assert b is not None and a.as_dict() == b.as_dict()
