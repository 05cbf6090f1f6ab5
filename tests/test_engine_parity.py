"""Property tests: batched engine queries equal the scalar oracles exactly.

The vectorized :class:`ContingencyEngine` powers `scores_batch`,
`adjusted_probabilities`, `bounds_batch` and the global explanation
builder.  Across random tables, causal diagrams and contexts every
batched result must agree with the one-at-a-time oracles of
``tests/oracles.py`` to within 1e-12 (they share the same integer
counts, so in practice the difference is a few ulps of summation
reordering at most), and every batch element must equal its own
``N = 1`` batch bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.causal.graph import CausalDiagram
from repro.core.bounds import BoundsEstimator
from repro.core.explanations import build_global_explanation
from repro.core.scores import SCORE_KINDS, ScoreEstimator
from repro.data.table import Table
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import EstimationError

from oracles import adjusted_one, global_explanation_scalar, scalar_scores

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
    st.integers(min_value=20, max_value=150),  # rows
    st.tuples(*[st.integers(min_value=2, max_value=4) for _ in NAMES]),  # cards
    st.integers(min_value=0, max_value=len(DIAGRAMS) - 1),  # diagram
    st.integers(min_value=0, max_value=2),  # context size
)


def draw_context(seed: int, cards: tuple[int, ...], size: int) -> dict[str, int]:
    """A context over the trailing attributes, guaranteed in-domain."""
    rng = np.random.default_rng(seed + 7)
    names = list(NAMES[-size:]) if size else []
    return {n: int(rng.integers(0, cards[NAMES.index(n)])) for n in names}


def all_pairs(card: int) -> list[tuple[int, int]]:
    return [(hi, lo) for hi in range(card) for lo in range(hi)]


def draw_contrasts(cards: tuple[int, ...], context: dict) -> list[tuple[dict, dict]]:
    """Every single-attribute value pair outside ``context``, plus one joint pair."""
    contrasts = []
    for name in NAMES:
        if name in context:
            continue
        for hi, lo in all_pairs(cards[NAMES.index(name)]):
            contrasts.append(({name: hi}, {name: lo}))
    # A joint (multi-attribute) contrast exercises the grouped dispatch.
    free = [n for n in NAMES if n not in context]
    if len(free) >= 2 and cards[NAMES.index(free[0])] > 1 and cards[NAMES.index(free[1])] > 1:
        contrasts.append(
            (
                {free[0]: 1, free[1]: 1},
                {free[0]: 0, free[1]: 0},
            )
        )
    return contrasts


@given(scenario)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scores_batch_equals_scalar_loop(params):
    seed, n_rows, cards, diagram_index, context_size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    context = draw_context(seed, cards, context_size)
    contrasts = draw_contrasts(cards, context)
    try:
        batched = estimator.scores_batch(contrasts, context)
    except Exception as exc:  # scalar loop must fail identically
        with pytest.raises(type(exc)):
            for treatment, baseline in contrasts:
                scalar_scores(estimator, treatment, baseline, context)
        return
    for (treatment, baseline), triple in zip(contrasts, batched):
        scalar = scalar_scores(estimator, treatment, baseline, context)
        assert abs(triple.necessity - scalar.necessity) <= TOL
        assert abs(triple.sufficiency - scalar.sufficiency) <= TOL
        assert (
            abs(triple.necessity_sufficiency - scalar.necessity_sufficiency)
            <= TOL
        )


@given(scenario)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_score_arrays_element_equals_its_own_batch(params):
    """A contrast's scores do not depend on the batch around it: ``==``.

    The single-contrast methods (``scores``, ``necessity``, ...) are the
    ``N = 1`` case, so they read the same bits too.
    """
    seed, n_rows, cards, diagram_index, context_size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    context = draw_context(seed, cards, context_size)
    contrasts = draw_contrasts(cards, context)
    try:
        forward = estimator.score_arrays(contrasts, context)
    except EstimationError:
        return
    backward = estimator.score_arrays(contrasts[::-1], context)
    for i, (treatment, baseline) in enumerate(contrasts):
        single = estimator.score_arrays([(treatment, baseline)], context)
        triple = estimator.scores(treatment, baseline, context)
        for kind in SCORE_KINDS:
            assert forward[kind][i] == single[kind][0]
            assert forward[kind][i] == backward[kind][len(contrasts) - 1 - i]
            assert forward[kind][i] == getattr(triple, kind)
            assert forward[kind][i] == getattr(estimator, kind)(
                treatment, baseline, context
            )


@given(scenario)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_adjusted_probabilities_equal_scalar(params):
    seed, n_rows, cards, _diagram_index, context_size = params
    engine = ContingencyEngine(make_table(seed, n_rows, cards))
    context = draw_context(seed, cards, context_size)
    adjustment = [n for n in ("Y", "Z") if n not in context]
    treatments = [{"X": code} for code in range(cards[1])]
    weight_conditions = [{"W": code % cards[0]} for code in range(cards[1])]
    event = {"W": 0}
    try:
        batch = engine.adjusted_probabilities(
            event, treatments, adjustment, weight_conditions, context
        )
    except Exception as exc:
        with pytest.raises(type(exc)):
            for treatment, weight in zip(treatments, weight_conditions):
                adjusted_one(engine, event, treatment, adjustment, weight, context)
        return
    for value, treatment, weight in zip(batch, treatments, weight_conditions):
        scalar = adjusted_one(engine, event, treatment, adjustment, weight, context)
        assert abs(float(value) - scalar) <= TOL


def _probability_or(engine, event, given, default: float) -> float:
    """The scalar count-ratio path, ``default`` on an unsupported condition."""
    try:
        return engine.probability(event, given)
    except EstimationError:
        return default


@given(scenario)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probabilities_batch_equals_scalar(params):
    seed, n_rows, cards, _diagram_index, _context_size = params
    engine = ContingencyEngine(make_table(seed, n_rows, cards))
    events, givens = [], []
    for x in range(cards[1]):
        events.append({"W": x % cards[0]})
        givens.append({"X": x})
        events.append({"W": 0, "Y": 0})
        givens.append({"X": x, "Z": 0})
        events.append({"X": x})  # overlaps its own condition
        givens.append({"X": x})
        events.append({})
        givens.append({"X": x})
    batch = engine.probabilities(events, givens, default=0.25)
    for value, event, given in zip(batch, events, givens):
        scalar = _probability_or(engine, event, given, 0.25)
        assert abs(float(value) - scalar) <= TOL


@given(scenario)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bounds_batch_equals_scalar(params):
    seed, n_rows, cards, diagram_index, context_size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    context = draw_context(seed, cards, context_size)
    bounds = BoundsEstimator(estimator)
    contrasts = []
    for name in NAMES:
        if name in context:
            continue
        for hi, lo in all_pairs(cards[NAMES.index(name)]):
            contrasts.append(({name: hi}, {name: lo}))
    try:
        batch = bounds.bounds_batch(contrasts, context)
    except Exception as exc:
        with pytest.raises(type(exc)):
            for treatment, baseline in contrasts:
                bounds.bounds(treatment, baseline, context)
        return
    for (treatment, baseline), got in zip(contrasts, batch):
        # The scalar path routes through bounds_batch with one contrast;
        # equality must hold to the last bit.
        one = bounds.bounds_batch([(treatment, baseline)], context)[0]
        for kind in ("necessity", "sufficiency", "necessity_sufficiency"):
            lo_a, hi_a = getattr(got, kind)
            lo_b, hi_b = getattr(one, kind)
            assert abs(lo_a - lo_b) <= TOL
            assert abs(hi_a - hi_b) <= TOL


def assert_global_explanation_matches_oracle(estimator, attributes, **kwargs):
    try:
        fast = build_global_explanation(estimator, attributes, **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            global_explanation_scalar(estimator, attributes, **kwargs)
        return
    slow = global_explanation_scalar(estimator, attributes, **kwargs)
    assert fast.context == slow.context
    assert len(fast.attribute_scores) == len(slow.attribute_scores)
    for a, b in zip(fast.attribute_scores, slow.attribute_scores):
        assert a.attribute == b.attribute
        assert abs(a.necessity - b.necessity) <= TOL
        assert abs(a.sufficiency - b.sufficiency) <= TOL
        assert abs(a.necessity_sufficiency - b.necessity_sufficiency) <= TOL
        assert a.best_pair_necessity == b.best_pair_necessity
        assert a.best_pair_sufficiency == b.best_pair_sufficiency
        assert a.best_pair_nesuf == b.best_pair_nesuf


@given(scenario)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_global_explanation_batched_equals_scalar(params):
    seed, n_rows, cards, diagram_index, context_size = params
    estimator = make_estimator(seed, n_rows, cards, diagram_index)
    context = draw_context(seed, cards, context_size)
    assert_global_explanation_matches_oracle(
        estimator, NAMES, context=context or None, max_pairs_per_attribute=4
    )


@pytest.mark.parametrize("max_pairs", [6, None])
def test_german_global_explanation_equals_scalar(german_lewis, max_pairs):
    """The German replica's explanation, with its real diagram, matches the oracle."""
    assert_global_explanation_matches_oracle(
        german_lewis.estimator,
        german_lewis.attributes,
        max_pairs_per_attribute=max_pairs,
    )


def test_weight_condition_overlapping_adjustment_matches_scalar():
    """A weight condition pinning an adjustment column must not be dropped.

    Regression: the vectorized path must defer to the sparse loop when
    ``weight_conditions`` intersects the adjustment set, otherwise the
    mixing weights marginalise over the pinned column.
    """
    engine = ContingencyEngine(make_table(11, 300, (2, 3, 3, 2)))
    batch = engine.adjusted_probabilities(
        {"W": 1},
        [{"X": 1}, {"X": 2}],
        adjustment=["Y", "Z"],
        weight_conditions=[{"Z": 0}, {"Z": 1}],
    )
    for value, treatment, weight in zip(batch, [{"X": 1}, {"X": 2}], [{"Z": 0}, {"Z": 1}]):
        # The scalar reference: weights grouped over (Y, Z) *given* the pin.
        combos, weights = engine.group_weights(["Y", "Z"], weight)
        expected = 0.0
        for (y, z), w in zip(combos.tolist(), weights.tolist()):
            inner = _probability_or(
                engine, {"W": 1}, {"Y": y, "Z": z, "X": treatment["X"]},
                _probability_or(engine, {"W": 1}, treatment, 0.0),
            )
            expected += w * inner
        assert abs(float(value) - expected) <= TOL


def test_group_weights_matches_mask_computation():
    """The tensor-backed grouped weights equal a mask+unique computation."""
    table = make_table(3, 200, (2, 3, 4, 2))
    engine = ContingencyEngine(table)
    mask = (table.codes("X") == 1) & (table.codes("Z") == 0)
    matrix = table.codes_matrix(["Y", "W"])[mask]
    uniques, counts = np.unique(matrix, axis=0, return_counts=True)
    expected = {
        tuple(int(c) for c in combo): int(count) / int(mask.sum())
        for combo, count in zip(uniques, counts)
    }
    combos, weights = engine.group_weights(["Y", "W"], {"X": 1, "Z": 0})
    got = {tuple(combo): w for combo, w in zip(combos.tolist(), weights.tolist())}
    assert got.keys() == expected.keys()
    for key, val in expected.items():
        assert got[key] == pytest.approx(val, abs=TOL)


def test_out_of_domain_codes_count_zero():
    """Codes outside a column's domain match no rows (not an index error)."""
    engine = ContingencyEngine(make_table(5, 60, (2, 2, 3, 2)))
    assert engine.count({"X": 99}) == 0
    assert engine.probabilities([{"W": 1}], [{"X": 99}], default=0.5)[0] == 0.5
