"""Integration tests: the paper's Propositions 4.1-4.4 against SCM truth.

These are the correctness core of the reproduction: each proposition is
checked on synthetic models where Pearl's three-step procedure gives the
exact answer.
"""

import numpy as np
import pytest

from repro.causal.equations import logistic_binary, root_categorical
from repro.causal.ground_truth import GroundTruthScores
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.core.bounds import BoundsEstimator
from repro.core.scores import ScoreEstimator


def _make_setup(scm, predict, n=40_000, seed=0, diagram_nodes=None):
    """Sample the SCM, apply the black box, wire estimators + truth."""
    table = scm.sample(n, seed=seed)
    features = table.select(diagram_nodes or scm.nodes)
    positive = np.asarray(predict(features), dtype=bool)
    diagram = scm.diagram.subgraph(diagram_nodes or scm.nodes)
    estimator = ScoreEstimator(features, positive, diagram=diagram)
    truth = GroundTruthScores(
        scm, predict=predict, positive=lambda o: np.asarray(o, dtype=bool),
        n_samples=n, seed=seed + 1,
    )
    return estimator, truth


@pytest.fixture(scope="module")
def monotone_case(toy_scm):
    """Monotone algorithm over the confounded toy SCM."""
    predict = lambda t: (t.codes("X") + t.codes("Z")) >= 2  # noqa: E731
    return _make_setup(toy_scm, predict, diagram_nodes=["Z", "X"])


@pytest.fixture(scope="module")
def nonmonotone_case(toy_scm):
    """Non-monotone algorithm (zig-zag in X given Z) over the same SCM.

    Positive iff (X=1, Z=0) or (X in {0,2}, Z=1): every (X, Z) cell holds
    both outcomes across the population, so all scores have support.
    """

    def predict(t):
        x, z = t.codes("X"), t.codes("Z")
        return ((x == 1) & (z == 0)) | ((x != 1) & (z == 1))

    return _make_setup(toy_scm, predict, diagram_nodes=["Z", "X"])


CONTRASTS = [(2, 0), (2, 1), (1, 0)]


class TestProposition41Bounds:
    """Bounds hold with or without monotonicity."""

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_truth_within_bounds_monotone(self, monotone_case, hi, lo):
        estimator, truth = monotone_case
        bounds = BoundsEstimator(estimator).bounds({"X": hi}, {"X": lo})
        exact = truth.scores("X", hi, lo)
        assert bounds.contains(
            exact["necessity"],
            exact["sufficiency"],
            exact["necessity_sufficiency"],
            tol=0.04,
        )

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_truth_within_bounds_nonmonotone(self, nonmonotone_case, hi, lo):
        estimator, truth = nonmonotone_case
        bounds = BoundsEstimator(estimator).bounds({"X": hi}, {"X": lo})
        exact = truth.scores("X", hi, lo)
        assert bounds.contains(
            exact["necessity"],
            exact["sufficiency"],
            exact["necessity_sufficiency"],
            tol=0.04,
        )

    @pytest.mark.parametrize("z", [0, 1])
    def test_contextual_bounds_monotone(self, monotone_case, z):
        estimator, truth = monotone_case
        bounds = BoundsEstimator(estimator).bounds({"X": 2}, {"X": 0}, {"Z": z})
        exact = truth.scores("X", 2, 0, {"Z": z})
        assert bounds.contains(
            exact["necessity"],
            exact["sufficiency"],
            exact["necessity_sufficiency"],
            tol=0.04,
        )


class TestProposition42PointEstimates:
    """Under monotonicity the point estimators match ground truth."""

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_nesuf_matches_truth(self, monotone_case, hi, lo):
        estimator, truth = monotone_case
        est = estimator.necessity_sufficiency({"X": hi}, {"X": lo})
        exact = truth.necessity_sufficiency("X", hi, lo)
        assert est == pytest.approx(exact, abs=0.04)

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_sufficiency_matches_truth(self, monotone_case, hi, lo):
        estimator, truth = monotone_case
        est = estimator.sufficiency({"X": hi}, {"X": lo})
        exact = truth.sufficiency("X", hi, lo)
        assert est == pytest.approx(exact, abs=0.05)

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_necessity_matches_truth(self, monotone_case, hi, lo):
        estimator, truth = monotone_case
        est = estimator.necessity({"X": hi}, {"X": lo})
        exact = truth.necessity("X", hi, lo)
        assert est == pytest.approx(exact, abs=0.05)

    @pytest.mark.parametrize("z", [0, 1])
    def test_contextual_estimates_match_truth(self, monotone_case, z):
        estimator, truth = monotone_case
        est = estimator.scores({"X": 2}, {"X": 0}, {"Z": z})
        exact = truth.scores("X", 2, 0, {"Z": z})
        assert est.sufficiency == pytest.approx(exact["sufficiency"], abs=0.05)
        assert est.necessity == pytest.approx(exact["necessity"], abs=0.05)


class TestProposition43Relation:
    """NESUF <= P(o,x|k) NEC + P(o',x'|k) SUF + 1 - P(x|k) - P(x'|k)."""

    def _check(self, estimator, hi, lo):
        freq = estimator.engine
        nec = estimator.necessity({"X": hi}, {"X": lo})
        suf = estimator.sufficiency({"X": hi}, {"X": lo})
        nesuf = estimator.necessity_sufficiency({"X": hi}, {"X": lo})
        p_o_x = freq.probability({"__outcome__": 1, "X": hi})
        p_no_xp = freq.probability({"__outcome__": 0, "X": lo})
        p_x = freq.probability({"X": hi})
        p_xp = freq.probability({"X": lo})
        rhs = p_o_x * nec + p_no_xp * suf + 1 - p_x - p_xp
        return nesuf, rhs

    @pytest.mark.parametrize("hi,lo", CONTRASTS)
    def test_inequality_monotone(self, monotone_case, hi, lo):
        estimator, _ = monotone_case
        nesuf, rhs = self._check(estimator, hi, lo)
        assert nesuf <= rhs + 0.03

    def test_equality_for_binary_attribute(self, toy_scm):
        """For binary X the inequality becomes an equality."""
        eqs = [
            StructuralEquation("W", (), (0, 1), root_categorical([0.6, 0.4])),
            StructuralEquation(
                "V", ("W",), (0, 1), logistic_binary({"W": 1.5}, bias=-0.7)
            ),
        ]
        scm = StructuralCausalModel(eqs)
        predict = lambda t: (t.codes("V") + t.codes("W")) >= 1  # noqa: E731
        estimator, _truth = _make_setup(scm, predict)
        nec = estimator.necessity({"V": 1}, {"V": 0})
        suf = estimator.sufficiency({"V": 1}, {"V": 0})
        nesuf = estimator.necessity_sufficiency({"V": 1}, {"V": 0})
        freq = estimator.engine
        rhs = (
            freq.probability({"__outcome__": 1, "V": 1}) * nec
            + freq.probability({"__outcome__": 0, "V": 0}) * suf
        )
        assert nesuf == pytest.approx(rhs, abs=0.03)


class TestProposition44ZeroScores:
    """Non-descendants of the outcome get zero scores."""

    def test_spurious_attribute_scores_zero(self):
        """W correlates with O via confounding but has no causal path."""
        eqs = [
            StructuralEquation("U", (), (0, 1), root_categorical([0.5, 0.5])),
            StructuralEquation(
                "W", ("U",), (0, 1), logistic_binary({"U": 2.5}, bias=-1.25)
            ),
            StructuralEquation(
                "X", ("U",), (0, 1), logistic_binary({"U": 2.5}, bias=-1.25)
            ),
        ]
        scm = StructuralCausalModel(eqs)
        predict = lambda t: t.codes("X") == 1  # noqa: E731  (ignores W)
        estimator, truth = _make_setup(scm, predict)
        # Ground truth: intervening on W cannot move the outcome.
        assert truth.necessity_sufficiency("W", 1, 0) == 0.0
        assert truth.sufficiency("W", 1, 0) == 0.0
        assert truth.necessity("W", 1, 0) == 0.0
        # Estimated NESUF with the correct diagram is ~0 even though W
        # and O are strongly correlated (U confounds them).
        est = estimator.necessity_sufficiency({"W": 1}, {"W": 0})
        assert est == pytest.approx(0.0, abs=0.04)
        # Without the diagram, the naive estimator is fooled — the causal
        # adjustment is what makes Prop 4.4 hold in estimation.
        naive = ScoreEstimator(
            estimator.table.drop(["__outcome__"]),
            estimator.table.codes("__outcome__").astype(bool),
            diagram=None,
        )
        assert naive.necessity_sufficiency({"W": 1}, {"W": 0}) > 0.15
