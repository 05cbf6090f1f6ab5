"""Unit tests for the IP container and branch-and-bound solver."""

import itertools

import numpy as np
import pytest

from repro.opt.branch_and_bound import solve_binary_program
from repro.opt.integer_program import IntegerProgram
from repro.utils.exceptions import RecourseInfeasibleError


def brute_force(program: IntegerProgram):
    """Exhaustive reference solver for small programs."""
    c, A_ub, b_ub, A_eq, b_eq = program.matrices()
    n = program.n_variables
    best, best_x = np.inf, None
    for bits in itertools.product([0, 1], repeat=n):
        x = np.array(bits, dtype=float)
        if A_ub is not None and (A_ub @ x > b_ub + 1e-9).any():
            continue
        if A_eq is not None and not np.allclose(A_eq @ x, b_eq, atol=1e-9):
            continue
        value = float(c @ x)
        if value < best - 1e-12:
            best, best_x = value, x
    return best, best_x


class TestIntegerProgram:
    def test_variable_bookkeeping(self):
        p = IntegerProgram()
        p.add_variable("a", cost=2.0)
        p.add_variable("b", cost=-1.0)
        assert p.n_variables == 2
        assert p.variable_names == ["a", "b"]

    def test_duplicate_variable_rejected(self):
        p = IntegerProgram()
        p.add_variable("a")
        with pytest.raises(ValueError):
            p.add_variable("a")

    def test_constraint_with_unknown_variable_rejected(self):
        p = IntegerProgram()
        p.add_variable("a")
        with pytest.raises(KeyError):
            p.add_le_constraint({"zzz": 1.0}, 1.0)

    def test_matrices_shapes(self):
        p = IntegerProgram()
        p.add_variable("a", 1.0)
        p.add_variable("b", 2.0)
        p.add_le_constraint({"a": 1.0, "b": 1.0}, 1.0)
        p.add_eq_constraint({"a": 1.0}, 1.0)
        c, A_ub, b_ub, A_eq, b_eq = p.matrices()
        assert c.tolist() == [1.0, 2.0]
        assert A_ub.shape == (1, 2)
        assert A_eq.shape == (1, 2)
        assert p.n_constraints == 2

    def test_ge_constraint_stored_negated(self):
        p = IntegerProgram()
        p.add_variable("a", 1.0)
        p.add_ge_constraint({"a": 1.0}, 1.0)
        _, A_ub, b_ub, _, _ = p.matrices()
        assert A_ub[0, 0] == -1.0
        assert b_ub[0] == -1.0

    def test_assignment_from_vector(self):
        p = IntegerProgram()
        p.add_variable("a")
        p.add_variable("b")
        assert p.assignment_from_vector(np.array([0.9999, 0.0001])) == {"a": 1, "b": 0}


class TestBranchAndBound:
    def test_unconstrained_minimum_picks_negative_costs(self):
        p = IntegerProgram()
        p.add_variable("a", cost=-2.0)
        p.add_variable("b", cost=3.0)
        sol = solve_binary_program(p)
        assert sol.values == {"a": 1, "b": 0}
        assert sol.objective == pytest.approx(-2.0)

    def test_knapsack_style(self):
        # maximise value (minimise -value) with weight limit.
        p = IntegerProgram()
        values = {"a": 6.0, "b": 10.0, "c": 12.0}
        weights = {"a": 1.0, "b": 2.0, "c": 3.0}
        for name, v in values.items():
            p.add_variable(name, cost=-v)
        p.add_le_constraint(weights, 5.0)
        sol = solve_binary_program(p)
        assert sol.objective == pytest.approx(-22.0)  # b + c
        assert sol.values == {"a": 0, "b": 1, "c": 1}

    def test_ge_constraint_forces_selection(self):
        p = IntegerProgram()
        p.add_variable("a", cost=5.0)
        p.add_ge_constraint({"a": 1.0}, 1.0)
        sol = solve_binary_program(p)
        assert sol.values["a"] == 1

    def test_eq_constraint(self):
        p = IntegerProgram()
        for name in "abc":
            p.add_variable(name, cost=1.0)
        p.add_eq_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, 2.0)
        sol = solve_binary_program(p)
        assert sum(sol.values.values()) == 2

    def test_infeasible_raises(self):
        p = IntegerProgram()
        p.add_variable("a", cost=1.0)
        p.add_ge_constraint({"a": 1.0}, 2.0)  # impossible for a binary
        with pytest.raises(RecourseInfeasibleError):
            solve_binary_program(p)

    def test_empty_program(self):
        sol = solve_binary_program(IntegerProgram())
        assert sol.values == {}
        assert sol.objective == 0.0

    def test_chosen_helper(self):
        p = IntegerProgram()
        p.add_variable("a", cost=-1.0)
        p.add_variable("b", cost=1.0)
        sol = solve_binary_program(p)
        assert sol.chosen() == ["a"]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        p = IntegerProgram()
        for i in range(n):
            p.add_variable(i, cost=float(rng.normal()))
        for _ in range(3):
            coeffs = {i: float(rng.normal()) for i in range(n)}
            rhs = float(rng.uniform(-1, 2))
            p.add_le_constraint(coeffs, rhs)
        reference, _ = brute_force(p)
        if np.isinf(reference):
            with pytest.raises(RecourseInfeasibleError):
                solve_binary_program(p)
        else:
            sol = solve_binary_program(p)
            assert sol.objective == pytest.approx(reference, abs=1e-6)

    def test_exclusivity_rows_like_recourse(self):
        # Two attributes with 3 candidate values each, pick cheapest combo
        # meeting a gain threshold — the exact recourse IP shape.
        p = IntegerProgram()
        gains = {}
        for attr in ("A", "B"):
            excl = {}
            for v, (cost, gain) in enumerate([(1.0, 0.4), (2.0, 0.9), (3.0, 1.5)]):
                p.add_variable((attr, v), cost=cost)
                gains[(attr, v)] = gain
                excl[(attr, v)] = 1.0
            p.add_le_constraint(excl, 1.0)
        p.add_ge_constraint(gains, 1.6)
        sol = solve_binary_program(p)
        chosen = sol.chosen()
        assert sum(gains[c] for c in chosen) >= 1.6
        # Optimal: B at gain 1.5 (cost 3) + A at 0.4 (cost 1)? that's 1.9/4.0;
        # alternative A 0.9 + B 0.9 invalid (same attr), so check optimum:
        reference, _ = brute_force(p)
        assert sol.objective == pytest.approx(reference)
