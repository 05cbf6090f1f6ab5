"""Tests for backdoor identification against SCM ground truth."""

import pytest

from repro.causal.identification import BackdoorAdjustment, interventional_probability
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import GraphError


class TestBackdoorAdjustment:
    def test_outcome_must_be_in_diagram(self, toy_scm, toy_table):
        est = ContingencyEngine(toy_table)
        with pytest.raises(GraphError):
            BackdoorAdjustment(est, toy_scm.diagram, outcome="Q")

    def test_adjustment_set_is_confounder(self, toy_scm, toy_table):
        est = ContingencyEngine(toy_table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["X"]) == ["Z"]

    def test_adjustment_set_for_root_treatment_is_empty(self, toy_scm, toy_table):
        est = ContingencyEngine(toy_table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["Z"]) == []

    def test_adjustment_set_cached(self, toy_scm, toy_table):
        est = ContingencyEngine(toy_table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        assert adj.adjustment_set(["X"]) is adj.adjustment_set(["X"])

    def test_interventional_matches_scm_truth(self, toy_scm):
        table = toy_scm.sample(40_000, seed=11)
        est = ContingencyEngine(table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        for x_code in (0, 1, 2):
            truth = toy_scm.sample(
                40_000, seed=99, interventions={"X": x_code}
            ).codes("Y").mean()
            estimate = adj.interventional(1, {"X": x_code})
            assert estimate == pytest.approx(truth, abs=0.03)

    def test_adjusted_differs_from_conditional_under_confounding(self, toy_scm):
        table = toy_scm.sample(40_000, seed=12)
        est = ContingencyEngine(table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        conditional = est.probability({"Y": 1}, {"X": 2})
        adjusted = adj.interventional(1, {"X": 2})
        # Z confounds X and Y, so conditioning != intervening.
        assert abs(conditional - adjusted) > 0.01

    def test_context_conditioning(self, toy_scm):
        table = toy_scm.sample(40_000, seed=13)
        est = ContingencyEngine(table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        # Conditioning on the only confounder: do(x) within Z=1 equals
        # the plain conditional within Z=1.
        plain = est.probability({"Y": 1}, {"X": 2, "Z": 1})
        value = adj.interventional(1, {"X": 2}, context={"Z": 1})
        assert value == pytest.approx(plain, abs=1e-9)

    def test_explicit_adjustment_override(self, toy_scm):
        table = toy_scm.sample(20_000, seed=14)
        est = ContingencyEngine(table)
        adj = BackdoorAdjustment(est, toy_scm.diagram, outcome="Y")
        forced = adj.interventional(1, {"X": 1}, adjustment=[])
        assert forced == pytest.approx(est.probability({"Y": 1}, {"X": 1}))

    def test_one_shot_wrapper(self, toy_scm):
        table = toy_scm.sample(20_000, seed=15)
        est = ContingencyEngine(table)
        a = interventional_probability(est, toy_scm.diagram, "Y", 1, {"X": 1})
        b = BackdoorAdjustment(est, toy_scm.diagram, "Y").interventional(1, {"X": 1})
        assert a == pytest.approx(b)
