"""Property-based tests on the score invariants (hypothesis).

Random small SCMs and random monotone 'algorithms' are generated; the
paper's structural properties must hold on every draw:

* all scores live in [0, 1],
* Proposition 4.1 bounds contain the point estimates under monotonicity,
* Proposition 4.3's inequality relates the three scores,
* the ground-truth scores of a zero-effect attribute vanish (Prop 4.4).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.causal.equations import logistic_binary, root_categorical
from repro.causal.ground_truth import GroundTruthScores
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.core.bounds import BoundsEstimator
from repro.core.scores import ScoreEstimator


def build_random_setup(z_prob, x_weight, threshold, seed):
    """Z -> X -> f; f = 1{X + Z >= threshold} (monotone)."""
    eqs = [
        StructuralEquation("Z", (), (0, 1), root_categorical([1 - z_prob, z_prob])),
        StructuralEquation(
            "X", ("Z",), (0, 1), logistic_binary({"Z": x_weight}, bias=-x_weight / 2)
        ),
    ]
    scm = StructuralCausalModel(eqs)

    def predict(t):
        return (t.codes("X") + t.codes("Z")) >= threshold

    table = scm.sample(6_000, seed=seed)
    positive = np.asarray(predict(table), dtype=bool)
    estimator = ScoreEstimator(table, positive, diagram=scm.diagram)
    return scm, predict, estimator


scenario = st.tuples(
    st.floats(min_value=0.2, max_value=0.8),
    st.floats(min_value=0.5, max_value=3.0),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)


@given(scenario)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scores_in_unit_interval(params):
    _scm, _predict, estimator = build_random_setup(*params)
    triple = estimator.scores({"X": 1}, {"X": 0})
    for value in triple.as_dict().values():
        assert 0.0 <= value <= 1.0


@given(scenario)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bounds_contain_point_estimates(params):
    _scm, _predict, estimator = build_random_setup(*params)
    triple = estimator.scores({"X": 1}, {"X": 0})
    bounds = BoundsEstimator(estimator).bounds({"X": 1}, {"X": 0})
    assert bounds.contains(
        triple.necessity, triple.sufficiency, triple.necessity_sufficiency, tol=0.06
    )


@given(scenario)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bounds_contain_ground_truth(params):
    scm, predict, estimator = build_random_setup(*params)
    truth = GroundTruthScores(
        scm, predict=predict, positive=lambda o: np.asarray(o, dtype=bool),
        n_samples=6_000, seed=1,
    )
    try:
        exact = truth.scores("X", 1, 0)
    except Exception:
        return  # degenerate draw without support
    bounds = BoundsEstimator(estimator).bounds({"X": 1}, {"X": 0})
    assert bounds.contains(
        exact["necessity"],
        exact["sufficiency"],
        exact["necessity_sufficiency"],
        tol=0.07,
    )


@given(scenario)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_proposition_43_inequality(params):
    _scm, _predict, estimator = build_random_setup(*params)
    freq = estimator.engine
    nec = estimator.necessity({"X": 1}, {"X": 0})
    suf = estimator.sufficiency({"X": 1}, {"X": 0})
    nesuf = estimator.necessity_sufficiency({"X": 1}, {"X": 0})
    rhs = (
        freq.probability({"__outcome__": 1, "X": 1}) * nec
        + freq.probability({"__outcome__": 0, "X": 0}) * suf
    )
    # Binary X: equality up to sampling noise (Prop 4.3).
    assert nesuf == pytest.approx(rhs, abs=0.05)


@given(
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_proposition_44_zero_scores_for_noncause(w_prob, seed):
    """An attribute with no causal path to the outcome scores zero."""
    eqs = [
        StructuralEquation("W", (), (0, 1), root_categorical([1 - w_prob, w_prob])),
        StructuralEquation("X", (), (0, 1), root_categorical([0.5, 0.5])),
    ]
    scm = StructuralCausalModel(eqs)

    def predict(t):
        return t.codes("X") == 1

    truth = GroundTruthScores(
        scm, predict=predict, positive=lambda o: np.asarray(o, dtype=bool),
        n_samples=4_000, seed=seed,
    )
    assert truth.necessity_sufficiency("W", 1, 0) == 0.0
    assert truth.sufficiency("W", 1, 0) == 0.0
    assert truth.necessity("W", 1, 0) == 0.0
