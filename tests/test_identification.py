"""Tests for backdoor identification against SCM ground truth.

``BackdoorAdjustment`` finds the adjustment set; the backdoor sum of
Eq. 4 is ``ContingencyEngine.adjusted_probabilities``, the one
``Pr(o | do(x), k)`` path ``Lewis.interventional_probability`` takes.
"""

import pytest

from repro.causal.identification import BackdoorAdjustment
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import GraphError


def do_probability(engine, adjuster, treatment, context=None) -> float:
    """``Pr(Y = 1 | do(treatment), context)`` over the diagram's
    adjustment set, or the plain conditional when none is admissible
    (Section 6), as ``ScoreEstimator._adjustment_for`` reads it."""
    context = dict(context or {})
    adjustment = adjuster.adjustment_set(list(treatment), list(context)) or []
    return float(
        engine.adjusted_probabilities(
            {"Y": 1}, [treatment], adjustment, context=context
        )[0]
    )


class TestBackdoorAdjustment:
    def test_outcome_must_be_in_diagram(self, toy_scm):
        with pytest.raises(GraphError):
            BackdoorAdjustment(toy_scm.diagram, outcome="Q")

    def test_adjustment_set_is_confounder(self, toy_scm):
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["X"]) == ["Z"]

    def test_adjustment_set_for_root_treatment_is_empty(self, toy_scm):
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["Z"]) == []

    def test_adjustment_set_cached(self, toy_scm):
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["X"]) is adj.adjustment_set(["X"])

    def test_interventional_matches_scm_truth(self, toy_scm):
        table = toy_scm.sample(40_000, seed=11)
        engine = ContingencyEngine(table)
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        for x_code in (0, 1, 2):
            truth = toy_scm.sample(
                40_000, seed=99, interventions={"X": x_code}
            ).codes("Y").mean()
            estimate = do_probability(engine, adj, {"X": x_code})
            assert estimate == pytest.approx(truth, abs=0.03)

    def test_adjusted_differs_from_conditional_under_confounding(self, toy_scm):
        table = toy_scm.sample(40_000, seed=12)
        engine = ContingencyEngine(table)
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        conditional = engine.probability({"Y": 1}, {"X": 2})
        adjusted = do_probability(engine, adj, {"X": 2})
        # Z confounds X and Y, so conditioning != intervening.
        assert abs(conditional - adjusted) > 0.01

    def test_context_conditioning(self, toy_scm):
        table = toy_scm.sample(40_000, seed=13)
        engine = ContingencyEngine(table)
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        # Conditioning on the only confounder: do(x) within Z=1 equals
        # the plain conditional within Z=1.
        plain = engine.probability({"Y": 1}, {"X": 2, "Z": 1})
        value = do_probability(engine, adj, {"X": 2}, context={"Z": 1})
        assert value == pytest.approx(plain, abs=1e-9)

    def test_explicit_adjustment_override(self, toy_scm):
        table = toy_scm.sample(20_000, seed=14)
        engine = ContingencyEngine(table)
        forced = engine.adjusted_probabilities({"Y": 1}, [{"X": 1}], [])[0]
        assert forced == pytest.approx(engine.probability({"Y": 1}, {"X": 1}))
