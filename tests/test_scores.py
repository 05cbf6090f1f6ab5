"""Unit tests for the ScoreEstimator (Proposition 4.2 estimators)."""

import numpy as np
import pytest

from repro.core.scores import ScoreEstimator, ScoreTriple

from oracles import local_context, local_scores


@pytest.fixture(scope="module")
def monotone_setup(toy_scm):
    """Toy SCM sample + a monotone deterministic 'algorithm' over X, Z.

    f(i) = 1 iff X + Z >= 2 — monotone in both attributes.
    """
    table = toy_scm.sample(25_000, seed=21).select(["Z", "X"])
    positive = (table.codes("X") + table.codes("Z")) >= 2
    estimator = ScoreEstimator(table, positive, diagram=toy_scm.diagram.subgraph(["Z", "X"]))
    return table, positive, estimator


class TestConstruction:
    def test_length_mismatch_rejected(self, toy_table):
        with pytest.raises(ValueError):
            ScoreEstimator(toy_table.select(["Z", "X"]), np.ones(3, dtype=bool))

    def test_outcome_name_clash_rejected(self, toy_table):
        features = toy_table.select(["Z", "X"])
        with pytest.raises(ValueError):
            ScoreEstimator(
                features,
                np.ones(len(features), dtype=bool),
                outcome_name="X",
            )

    def test_table_gains_outcome_column(self, monotone_setup):
        _table, positive, estimator = monotone_setup
        assert "__outcome__" in estimator.table
        assert estimator.table.codes("__outcome__").sum() == positive.sum()

    def test_positive_rate(self, monotone_setup):
        _table, positive, estimator = monotone_setup
        assert estimator.positive_rate() == pytest.approx(positive.mean())


class TestScoreSanity:
    def test_scores_in_unit_interval(self, monotone_setup):
        _t, _p, est = monotone_setup
        for hi in (1, 2):
            for lo in range(hi):
                triple = est.scores({"X": hi}, {"X": lo})
                for v in triple.as_dict().values():
                    assert 0.0 <= v <= 1.0

    def test_identical_pair_rejected(self, monotone_setup):
        _t, _p, est = monotone_setup
        with pytest.raises(ValueError):
            est.scores({"X": 1}, {"X": 1})

    def test_mismatched_keys_rejected(self, monotone_setup):
        _t, _p, est = monotone_setup
        with pytest.raises(ValueError):
            est.necessity({"X": 1}, {"Z": 0})

    def test_empty_treatment_rejected(self, monotone_setup):
        _t, _p, est = monotone_setup
        with pytest.raises(ValueError):
            est.necessity({}, {})

    def test_larger_contrast_larger_nesuf(self, monotone_setup):
        _t, _p, est = monotone_setup
        small = est.necessity_sufficiency({"X": 1}, {"X": 0})
        large = est.necessity_sufficiency({"X": 2}, {"X": 0})
        assert large >= small - 0.02

    def test_scores_for_attribute_sets(self, monotone_setup):
        _t, _p, est = monotone_setup
        triple = est.scores({"X": 2, "Z": 1}, {"X": 0, "Z": 0})
        assert triple.necessity_sufficiency > 0.5  # joint flip is decisive

    def test_context_conditioning_changes_scores(self, monotone_setup):
        _t, _p, est = monotone_setup
        # Given Z=1, X>=1 suffices; given Z=0, X must be 2.
        suf_z1 = est.sufficiency({"X": 1}, {"X": 0}, {"Z": 1})
        suf_z0 = est.sufficiency({"X": 1}, {"X": 0}, {"Z": 0})
        assert suf_z1 > 0.9
        assert suf_z0 < 0.1


class TestDeterministicAlgorithmExactness:
    """For f(i) = 1{X + Z >= 2}, exact counterfactual scores are computable.

    Intervening on X does not change Z (Z is X's parent), so within
    context Z=z the counterfactual outcome under X <- x is 1{x + z >= 2}
    deterministically.
    """

    def test_sufficiency_exact_given_z(self, monotone_setup):
        _t, _p, est = monotone_setup
        # Units with Z=1, X=0 are negative; setting X=2 makes 3 >= 2: SUF=1.
        assert est.sufficiency({"X": 2}, {"X": 0}, {"Z": 1}) == pytest.approx(
            1.0, abs=0.02
        )
        # Setting X=1 given Z=1 gives 2 >= 2: also sufficient.
        assert est.sufficiency({"X": 1}, {"X": 0}, {"Z": 1}) == pytest.approx(
            1.0, abs=0.02
        )

    def test_necessity_exact_given_z(self, monotone_setup):
        _t, _p, est = monotone_setup
        # Units with Z=0, X=2 are positive; dropping X to 1 gives 1 < 2: NEC=1.
        assert est.necessity({"X": 2}, {"X": 1}, {"Z": 0}) == pytest.approx(
            1.0, abs=0.02
        )
        # Units with Z=1, X=2 positive; dropping to 1 keeps 2 >= 2: NEC=0.
        assert est.necessity({"X": 2}, {"X": 1}, {"Z": 1}) == pytest.approx(
            0.0, abs=0.02
        )

    def test_nesuf_exact_given_z(self, monotone_setup):
        _t, _p, est = monotone_setup
        # Given Z=0: outcome flips iff X moves across the X=2 boundary.
        assert est.necessity_sufficiency({"X": 2}, {"X": 1}, {"Z": 0}) == pytest.approx(
            1.0, abs=0.02
        )
        assert est.necessity_sufficiency({"X": 1}, {"X": 0}, {"Z": 0}) == pytest.approx(
            0.0, abs=0.02
        )


class TestNoConfoundingFallback:
    def test_without_diagram_uses_plain_conditionals(self, monotone_setup):
        table, positive, _est = monotone_setup
        est = ScoreEstimator(table, positive, diagram=None)
        # No-confounding sufficiency: (P(o|x,k) - P(o|x',k)) / P(o'|x',k).
        from repro.estimation.engine import ContingencyEngine

        engine = ContingencyEngine(est.table)
        p_hi = engine.probability({"__outcome__": 1}, {"X": 2})
        p_lo = engine.probability({"__outcome__": 1}, {"X": 0})
        expected = (p_hi - p_lo) / (1 - p_lo)
        assert est.sufficiency({"X": 2}, {"X": 0}) == pytest.approx(expected, abs=1e-9)

    def test_diagram_changes_global_scores_under_confounding(self, monotone_setup):
        table, positive, with_graph = monotone_setup
        without = ScoreEstimator(table, positive, diagram=None)
        # Z confounds X and O. For the contrast X: 1 vs 0 the adjusted
        # NESUF is P(Z=1) (only Z=1 units flip), while the unadjusted one
        # is P(o|X=1) - P(o|X=0) = P(Z=1|X=1), inflated because high X
        # co-occurs with high Z.
        adjusted = with_graph.necessity_sufficiency({"X": 1}, {"X": 0})
        unadjusted = without.necessity_sufficiency({"X": 1}, {"X": 0})
        p_z1 = table.codes("Z").mean()
        assert adjusted == pytest.approx(p_z1, abs=0.02)
        assert unadjusted > adjusted + 0.05


class TestLocalScores:
    def test_local_context_excludes_descendants(self, monotone_setup, toy_scm):
        table, positive, _ = monotone_setup
        est = ScoreEstimator(table, positive, diagram=toy_scm.diagram.subgraph(["Z", "X"]))
        ctx = local_context(est, "Z", {"Z": 1, "X": 2})
        assert ctx == {}  # X is a descendant of Z
        ctx_x = local_context(est, "X", {"Z": 1, "X": 2})
        assert ctx_x == {"Z": 1}

    def test_local_context_without_diagram_uses_all_others(self, monotone_setup):
        table, positive, _ = monotone_setup
        est = ScoreEstimator(table, positive, diagram=None)
        assert local_context(est, "Z", {"Z": 1, "X": 2}) == {"X": 2}

    def test_local_scores_match_deterministic_rule(self, monotone_setup):
        _t, _p, est = monotone_setup
        # Given Z=1 fixed: raising X from 0 to 2 flips the outcome.
        triple = local_scores(est, "X", 2, 0, {"Z": 1})
        assert triple.sufficiency > 0.9
        assert triple.necessity_sufficiency > 0.9

    def test_local_scores_identical_values_rejected(self, monotone_setup):
        _t, _p, est = monotone_setup
        with pytest.raises(ValueError):
            local_scores(est, "X", 1, 1, {"Z": 0})

    def test_local_model_cached(self, monotone_setup):
        _t, _p, est = monotone_setup
        local_scores(est, "X", 2, 0, {"Z": 1})
        first = est._local_models[("X", "Z")]
        local_scores(est, "X", 1, 0, {"Z": 0})
        assert est._local_models[("X", "Z")] is first

    def test_local_score_arrays_need_every_column_they_read(self, monotone_setup):
        table, _p, est = monotone_setup
        x_only = table.select(["X"]).take([0, 1])
        # No column for the attribute (Z), or for its context (Z is a
        # non-descendant of X): unknown to the cohort.
        for attribute in ("Z", "X"):
            with pytest.raises(KeyError):
                est.local_score_arrays(x_only, [attribute])


class TestScoreTriple:
    def test_as_dict(self):
        t = ScoreTriple(0.1, 0.2, 0.3)
        assert t.as_dict() == {
            "necessity": 0.1,
            "sufficiency": 0.2,
            "necessity_sufficiency": 0.3,
        }
