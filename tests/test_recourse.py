"""Unit tests for the recourse solver and the LinearIP baseline."""

import numpy as np
import pytest
from oracles import cohort, gain_of, solve_ip_milp

from repro.core.recourse import RecourseAction, RecourseSolver, unit_step_cost
from repro.core.scores import ScoreEstimator
from repro.data.table import Column, Table
from repro.estimation.logit import logit
from repro.utils.exceptions import RecourseInfeasibleError
from repro.xai.linear_ip import LinearIPRecourse


@pytest.fixture(scope="module")
def recourse_setup():
    """Two ordinal features, outcome = 1{a + b >= 3}; rich support."""
    rng = np.random.default_rng(7)
    n = 6_000
    a = rng.integers(0, 4, size=n)
    b = rng.integers(0, 3, size=n)
    table = Table(
        [
            Column.from_codes("a", a, (0, 1, 2, 3)),
            Column.from_codes("b", b, (0, 1, 2)),
        ]
    )
    positive = (a + b) >= 3
    est = ScoreEstimator(table, positive)
    return table, positive, est


def solve_row(solver, table, row, alpha):
    """The solver's answer for one ``{column: code}`` row of ``table``."""
    return solver.solve_batch(cohort(table, [row]), alpha=alpha)[0]


class TestUnitStepCost:
    def test_symmetric_in_distance(self):
        assert unit_step_cost("x", 0, 2) == 2.0
        assert unit_step_cost("x", 2, 0) == 2.0

    def test_zero_for_no_move(self):
        assert unit_step_cost("x", 1, 1) == 0.0


class TestRecourseSolver:
    def test_empty_actionable_rejected(self, recourse_setup):
        _t, _p, est = recourse_setup
        with pytest.raises(ValueError):
            RecourseSolver(est, [])

    def test_unknown_actionable_rejected(self, recourse_setup):
        _t, _p, est = recourse_setup
        with pytest.raises(KeyError):
            RecourseSolver(est, ["zzz"])

    def test_solution_reaches_threshold(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a", "b"])
        recourse = solve_row(solver, table, {"a": 0, "b": 0}, 0.8)
        assert recourse.estimated_sufficiency >= 0.8 - 1e-9
        new = dict({"a": 0, "b": 0}, **{r.attribute: None for r in recourse.actions})
        # Decode actions back to codes and verify the deterministic rule.
        codes = {"a": 0, "b": 0}
        for action in recourse.actions:
            domain = est.table.column(action.attribute).categories
            codes[action.attribute] = domain.index(action.new_value)
        assert codes["a"] + codes["b"] >= 3

    def test_no_action_needed_for_satisfied_individual(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a", "b"])
        recourse = solve_row(solver, table, {"a": 3, "b": 2}, 0.5)
        assert recourse.is_empty

    def test_cost_minimality_against_enumeration(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a", "b"])
        start = {"a": 1, "b": 0}
        recourse = solve_row(solver, table, start, 0.8)
        # Enumerate all (a, b) reaching the rule and compare unit costs.
        best = min(
            abs(a - start["a"]) + abs(b - start["b"])
            for a in range(4)
            for b in range(3)
            if a + b >= 3
        )
        assert recourse.total_cost <= best + 1.0  # surrogate may add 1 step

    def test_custom_cost_function_changes_solution(self, recourse_setup):
        table, _p, est = recourse_setup

        def expensive_a(attr, cur, new):
            base = abs(new - cur)
            return base * (100.0 if attr == "a" else 1.0)

        cheap = RecourseSolver(est, ["a", "b"], cost_fn=expensive_a)
        recourse = solve_row(cheap, table, {"a": 1, "b": 0}, 0.7)
        touched = {r.attribute for r in recourse.actions}
        assert "b" in touched  # prefers the cheap attribute

    def test_actions_have_decoded_values(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a", "b"])
        recourse = solve_row(solver, table, {"a": 0, "b": 1}, 0.8)
        for action in recourse.actions:
            assert isinstance(action, RecourseAction)
            assert action.new_value in est.table.column(action.attribute).categories

    def test_statements_render(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a", "b"])
        recourse = solve_row(solver, table, {"a": 0, "b": 0}, 0.8)
        lines = recourse.statements()
        assert any("Change" in line for line in lines)
        assert any("positive decision" in line for line in lines)

    def test_constraint_count_linear_in_actionable(self, recourse_setup):
        table, _p, est = recourse_setup
        one = solve_row(RecourseSolver(est, ["a"]), table, {"a": 0, "b": 2}, 0.6)
        two = solve_row(RecourseSolver(est, ["a", "b"]), table, {"a": 0, "b": 0}, 0.6)
        # One exclusivity row per actionable attribute + the sufficiency row.
        assert one.n_constraints == 2
        assert two.n_constraints == 3

    def test_invalid_alpha_rejected(self, recourse_setup):
        table, _p, est = recourse_setup
        solver = RecourseSolver(est, ["a"])
        with pytest.raises(ValueError):
            solve_row(solver, table, {"a": 0, "b": 0}, 1.5)


class TestLinearIPBaseline:
    def test_reaches_target_when_feasible(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["a", "b"])
        result = lip.solve({"a": 0, "b": 0}, success_probability=0.7)
        assert result.achieved_probability >= 0.7 - 0.05

    def test_infeasible_at_extreme_threshold(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["b"])  # b alone cannot reach
        with pytest.raises(RecourseInfeasibleError):
            lip.solve({"a": 0, "b": 0}, success_probability=0.999)

    def test_cost_reported(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["a", "b"])
        result = lip.solve({"a": 0, "b": 0}, success_probability=0.6)
        assert result.total_cost == sum(a.cost for a in result.actions)

    def test_empty_actionable_rejected(self, recourse_setup):
        table, positive, _est = recourse_setup
        with pytest.raises(ValueError):
            LinearIPRecourse(table, positive, [])

    def test_invalid_probability_rejected(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["a", "b"])
        with pytest.raises(ValueError):
            lip.solve({"a": 0, "b": 0}, success_probability=1.5)

    def test_program_needs_the_score_distance_to_the_threshold(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["a", "b"])
        row = {"a": 0, "b": 1}
        skeleton, needed = lip.program(row, 0.7)
        assert skeleton.current == (0, 1)
        assert [c.tolist() for c in skeleton.codes] == [[1, 2, 3], [0, 2]]
        assert [c.tolist() for c in skeleton.costs] == [[1.0, 2.0, 3.0], [1.0, 1.0]]
        # At 0.5 the logit is 0, so ``needed`` is minus the row's score.
        _, at_half = lip.program(row, 0.5)
        assert needed - at_half == pytest.approx(logit(0.7), abs=1e-12)
        result = lip.solve(row, 0.7)
        chosen = {
            action.attribute: table.column(action.attribute).categories.index(
                action.new_value
            )
            for action in result.actions
        }
        score = -at_half + gain_of(skeleton, chosen)
        assert result.achieved_probability == pytest.approx(
            1.0 / (1.0 + np.exp(-score)), abs=1e-12
        )
        assert result.achieved_probability >= 0.7

    def test_no_action_when_the_row_already_meets_the_threshold(self, recourse_setup):
        table, positive, _est = recourse_setup
        lip = LinearIPRecourse(table, positive, ["a", "b"])
        row = {"a": 3, "b": 2}
        _, needed = lip.program(row, 0.5)
        assert needed < 0
        result = lip.solve(row, 0.5)
        assert result.actions == []
        assert result.total_cost == 0.0
        assert result.achieved_probability == pytest.approx(
            1.0 / (1.0 + np.exp(needed)), abs=1e-12
        )

    def test_custom_cost_fn_prices_the_program(self, recourse_setup):
        table, positive, _est = recourse_setup

        def cost_fn(attribute, current, new):
            # Moving b is free; each step of a costs 10.
            return 0.0 if attribute == "b" else 10.0 * abs(new - current)

        lip = LinearIPRecourse(table, positive, ["a", "b"], cost_fn=cost_fn)
        row = {"a": 0, "b": 0}
        skeleton, needed = lip.program(row, 0.6)
        assert [c.tolist() for c in skeleton.costs] == [[10.0, 20.0, 30.0], [0.0, 0.0]]
        result = lip.solve(row, 0.6)
        assert result.total_cost == pytest.approx(solve_ip_milp(skeleton, needed)[1])
        assert result.total_cost == sum(a.cost for a in result.actions)
        assert all(a.cost == 0.0 for a in result.actions if a.attribute == "b")
        assert result.achieved_probability >= 0.6
