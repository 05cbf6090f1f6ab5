"""Exact and anytime recourse solving.

Property suite for the signature kernel: the parametric exact search
must agree with the scipy/HiGHS MILP oracle of ``tests/oracles.py``, a
row's answer must be the same bits whether it is solved alone or in a
batch, the serial loop must solve each unsolved signature once and stop
at the deadline between signatures, and anytime mode's certified
optimality gap must genuinely upper-bound the distance to the exact
optimum.
"""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import milp_exact_step
from scipy.optimize import linprog

from repro.core import recourse_kernel
from repro.core.recourse import Recourse, RecourseAction, RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.opt.branch_and_bound import solve_binary_program
from repro.opt.integer_program import IntegerProgram
from repro.opt.parametric import (
    FEASIBILITY_TOL,
    SignatureSkeleton,
    greedy_cover,
)
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DeadlineExceededError, RecourseInfeasibleError


def make_population(seed: int = 0, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_codes(
        {
            "skill": rng.integers(0, 4, n),
            "hours": rng.integers(0, 4, n),
            "degree": rng.integers(0, 3, n),
            "region": rng.integers(0, 2, n),
        },
        domains={
            "skill": [0, 1, 2, 3],
            "hours": [0, 1, 2, 3],
            "degree": [0, 1, 2],
            "region": [0, 1],
        },
    )


def score_model(features: Table) -> np.ndarray:
    z = (
        features.codes("skill")
        + features.codes("hours")
        + 2 * features.codes("degree")
    )
    return z >= 5


def make_estimator(seed: int = 0, n: int = 400) -> ScoreEstimator:
    table = make_population(seed, n)
    return ScoreEstimator(table, score_model(table))


def negative_rows(estimator: ScoreEstimator, limit: int | None = None) -> list[dict]:
    rows = [
        estimator.table.row_codes(i)
        for i in range(estimator.table.n_rows)
        if not estimator._positive[i]
    ]
    return rows if limit is None else rows[:limit]


def random_skeleton(rng: np.random.Generator) -> SignatureSkeleton:
    n_attrs = int(rng.integers(2, 5))
    codes, costs, gains = [], [], []
    current = []
    for _ in range(n_attrs):
        k = int(rng.integers(0, 4))
        codes.append(list(range(1, k + 1)))
        costs.append([float(c) for c in rng.uniform(0.1, 3.0, k)])
        gains.append([float(g) for g in rng.normal(0.5, 1.0, k)])
        current.append(0)
    return SignatureSkeleton(
        attributes=[f"a{i}" for i in range(n_attrs)],
        current=current,
        codes=codes,
        costs=costs,
        gains=gains,
    )


def lp_value_via_linprog(skeleton: SignatureSkeleton, needed: float) -> float | None:
    """LP relaxation objective via scipy, or None when infeasible."""
    c, g = [], []
    blocks = []
    offset = 0
    for a in range(len(skeleton.attributes)):
        k = len(skeleton.codes[a])
        c.extend(skeleton.costs[a])
        g.extend(skeleton.gains[a])
        blocks.append((offset, offset + k))
        offset += k
    n = offset
    if n == 0:
        return 0.0 if needed <= FEASIBILITY_TOL else None
    A_ub = []
    b_ub = []
    for lo, hi in blocks:
        row = np.zeros(n)
        row[lo:hi] = 1.0
        A_ub.append(row)
        b_ub.append(1.0)
    A_ub.append(-np.asarray(g))
    b_ub.append(-needed)
    result = linprog(
        c, A_ub=np.asarray(A_ub), b_ub=np.asarray(b_ub), bounds=[(0, 1)] * n,
        method="highs",
    )
    if not result.success:
        return None
    return float(result.fun)


def use_milp_oracle(monkeypatch) -> None:
    """Swap the kernel's exact step for the HiGHS MILP of ``tests/oracles.py``."""
    monkeypatch.setattr(recourse_kernel, "_exact_step", milp_exact_step)


def solve_all(solver, rows, alpha):
    """Scalar answers per row; ``None`` where the row is infeasible."""
    out = []
    for row in rows:
        try:
            out.append(solver.solve(row, alpha=alpha))
        except RecourseInfeasibleError:
            out.append(None)
    return out


class TestEngineParity:
    """The parametric exact search agrees with the scipy/HiGHS MILP oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_objectives_match_milp(self, seed, alpha, monkeypatch):
        estimator = make_estimator(seed=seed)
        actionable = ["skill", "hours", "degree"]
        rows = negative_rows(estimator, limit=60)
        fast = solve_all(RecourseSolver(estimator, actionable), rows, alpha)
        use_milp_oracle(monkeypatch)
        oracle = solve_all(RecourseSolver(estimator, actionable), rows, alpha)
        checked = 0
        for a, b in zip(fast, oracle):
            if a is None:
                assert b is None
                continue
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            assert a.n_constraints == b.n_constraints
            assert a.n_variables == b.n_variables
            checked += 1
        assert checked > 10

    def test_custom_costs_match_milp(self, monkeypatch):
        estimator = make_estimator(seed=3)

        def lopsided(attribute: str, current: int, new: int) -> float:
            return 2.5 if attribute == "skill" else 0.5 * abs(new - current)

        rows = negative_rows(estimator, limit=40)
        actionable = ["skill", "hours"]
        fast = solve_all(
            RecourseSolver(estimator, actionable, cost_fn=lopsided), rows, 0.6
        )
        use_milp_oracle(monkeypatch)
        oracle = solve_all(
            RecourseSolver(estimator, actionable, cost_fn=lopsided), rows, 0.6
        )
        checked = 0
        for a, b in zip(fast, oracle):
            if a is None:
                continue
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            checked += 1
        assert checked > 5


class TestScalarBatchIdentity:
    """A row's answer does not depend on the batch it is solved in."""

    def test_scalar_and_batch_agree_exactly(self):
        estimator = make_estimator(seed=5)
        batch_solver = RecourseSolver(estimator, ["skill", "hours"])
        scalar_solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=50)
        batch = batch_solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        for row, b in zip(rows, batch):
            if b is None:
                with pytest.raises(RecourseInfeasibleError):
                    scalar_solver.solve(row, alpha=0.6)
                continue
            # Bit identity of the whole answer, not approximate agreement.
            assert scalar_solver.solve(row, alpha=0.6) == b


def record_kernel_calls(monkeypatch, on_call=None) -> list:
    """Wrap ``recourse_kernel.solve_signature``; returns the call log."""
    calls = []
    real = recourse_kernel.solve_signature

    def recording(skeleton, *args, **kwargs):
        calls.append(skeleton.current)
        if on_call is not None:
            on_call()
        return real(skeleton, *args, **kwargs)

    monkeypatch.setattr(recourse_kernel, "solve_signature", recording)
    return calls


class TestSerialLoop:
    """``solve_batch`` solves each unsolved signature once, in turn."""

    def test_each_distinct_signature_is_solved_once(self, monkeypatch):
        estimator = make_estimator(seed=6)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=80)
        names = solver.actionable + solver.context_names
        distinct = {tuple(row[name] for name in names) for row in rows}
        assert len(distinct) < len(rows)  # the cohort really collides
        calls = record_kernel_calls(monkeypatch)
        first = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(calls) == len(distinct)
        assert solver.solution_memo_stats()["signature_solves"] == len(distinct)
        # A repeat is served from the memo: no kernel call, same objects.
        again = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(calls) == len(distinct)
        assert all(a is b for a, b in zip(first, again))

    def test_base_logits_are_scored_in_one_pass(self, monkeypatch):
        estimator = make_estimator(seed=6)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=80)
        passes = []
        real = solver._logit.score_codes_batch

        def scoring(matrix):
            passes.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(solver._logit, "score_codes_batch", scoring)
        solver.solve_batch(rows[:40], alpha=0.6, on_infeasible="none")
        first = solver.solution_memo_stats()["signature_solves"]
        assert passes == [first]
        # The wider batch scores only what the first one left unsolved.
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        total = solver.solution_memo_stats()["signature_solves"]
        assert passes == [first, total - first] and total > first
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(passes) == 2

    def test_deadline_is_checked_between_signatures(self, monkeypatch):
        estimator = make_estimator(seed=6)
        rows = negative_rows(estimator, limit=80)
        reference = RecourseSolver(estimator, ["skill", "hours"]).solve_batch(
            rows, alpha=0.6, on_infeasible="none"
        )
        solver = RecourseSolver(estimator, ["skill", "hours"])
        # The deadline module's clock, skewed an hour ahead on demand.
        skew = [0.0]
        monkeypatch.setattr(
            _deadline,
            "time",
            SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0]),
        )

        def expire_once():
            # The request's deadline passes while the first signature solves.
            skew[0] = 3600.0

        calls = record_kernel_calls(monkeypatch, on_call=expire_once)
        with _deadline.scope(60_000), pytest.raises(
            DeadlineExceededError, match="signature solve"
        ):
            solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(calls) == 1
        # The signature solved in time stays memoised; a retry without a
        # deadline solves only the rest and answers like a fresh solver.
        assert solver.solution_memo_stats()["solved_signatures"] == 1
        assert solver.solve_batch(rows, alpha=0.6, on_infeasible="none") == (
            reference
        )
        stats = solver.solution_memo_stats()
        assert stats["signature_solves"] == stats["solved_signatures"] > 1

    def test_solver_takes_no_pool_or_engine_options(self):
        estimator = make_estimator(seed=0)
        with pytest.raises(TypeError):
            RecourseSolver(estimator, ["skill"], engine="milp")
        solver = RecourseSolver(estimator, ["skill"])
        rows = negative_rows(estimator, limit=5)
        for option in ({"workers": 2}, {"mp_context": "fork"}, {"donors": []}):
            with pytest.raises(TypeError):
                solver.solve_batch(rows, alpha=0.6, **option)


class TestAnytimeMode:
    """Greedy anytime answers carry a certified optimality gap."""

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_gap_upper_bounds_exact_difference(self, seed):
        estimator = make_estimator(seed=seed)
        actionable = ["skill", "hours", "degree"]
        exact = RecourseSolver(estimator, actionable)
        anytime = RecourseSolver(estimator, actionable)
        rows = negative_rows(estimator, limit=60)
        exact_out = exact.solve_batch(rows, alpha=0.6, on_infeasible="none")
        anytime_out = anytime.solve_batch(
            rows, alpha=0.6, on_infeasible="none", mode="anytime"
        )
        checked = 0
        for e, a in zip(exact_out, anytime_out):
            if a is None or e is None:
                continue
            assert a.mode == "anytime"
            assert a.optimality_gap >= 0.0
            # The certificate: anytime cost can exceed the exact optimum
            # by at most the reported gap.
            assert a.total_cost - e.total_cost <= a.optimality_gap + 1e-9
            # And the anytime answer is genuinely feasible.
            assert a.estimated_sufficiency >= 0.6 - 1e-9
            checked += 1
        assert checked > 10

    def test_exact_mode_reports_zero_gap(self):
        estimator = make_estimator(seed=1)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        for row in negative_rows(estimator, limit=15):
            try:
                recourse = solver.solve(row, alpha=0.6)
            except RecourseInfeasibleError:
                continue
            assert recourse.optimality_gap == 0.0
            assert recourse.mode == "exact"

    def test_modes_occupy_distinct_memo_keys(self):
        estimator = make_estimator(seed=2)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=25)
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        exact_only = solver.solution_memo_stats()["solved_signatures"]
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none", mode="anytime")
        assert solver.solution_memo_stats()["solved_signatures"] == 2 * exact_only


class TestFrozenRecourse:
    def test_recourse_is_immutable(self):
        recourse = Recourse(
            actions=[
                RecourseAction("skill", 0, 2, 2.0),
            ],
            total_cost=2.0,
            estimated_sufficiency=0.9,
            estimated_probability=0.8,
            threshold=0.75,
            n_constraints=2,
            n_variables=3,
        )
        assert isinstance(recourse.actions, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            recourse.total_cost = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            recourse.actions = ()

    def test_defaults_are_exact_with_zero_gap(self):
        recourse = Recourse(
            actions=(),
            total_cost=0.0,
            estimated_sufficiency=1.0,
            estimated_probability=0.9,
            threshold=0.9,
            n_constraints=0,
            n_variables=0,
        )
        assert recourse.mode == "exact"
        assert recourse.optimality_gap == 0.0


class TestMilpOptionPlumbing:
    def _capture_milp(self, monkeypatch, captured):
        import scipy.optimize

        real_milp = scipy.optimize.milp

        def spy(c, **kwargs):
            # Copy: scipy pops recognised keys out of the options dict.
            captured.append(dict(kwargs.get("options", {})))
            return real_milp(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", spy)

    def test_budgets_reach_highs_options(self, monkeypatch):
        captured: list[dict] = []
        self._capture_milp(monkeypatch, captured)
        program = IntegerProgram()
        program.add_variable("x", cost=1.0)
        program.add_ge_constraint({"x": 1.0}, 1.0)
        solution = solve_binary_program(
            program, max_nodes=123, time_limit=4.5, mip_rel_gap=0.01
        )
        assert solution.objective == pytest.approx(1.0)
        assert captured == [
            {"node_limit": 123, "time_limit": 4.5, "mip_rel_gap": 0.01}
        ]

    def test_exhausted_budget_raises(self, monkeypatch):
        import scipy.optimize

        class FakeResult:
            status = 1
            success = False
            x = None
            fun = None

        monkeypatch.setattr(scipy.optimize, "milp", lambda c, **k: FakeResult())
        program = IntegerProgram()
        program.add_variable("x", cost=1.0)
        program.add_ge_constraint({"x": 1.0}, 1.0)
        with pytest.raises(RecourseInfeasibleError, match="budget exhausted"):
            solve_binary_program(program, max_nodes=1)

    def test_unexpected_status_raises_naming_it(self, monkeypatch):
        import scipy.optimize

        class FakeResult:
            status = 4
            success = False
            message = "numerical trouble"
            x = None
            fun = None

        monkeypatch.setattr(scipy.optimize, "milp", lambda c, **k: FakeResult())
        program = IntegerProgram()
        program.add_variable("x", cost=1.0)
        program.add_ge_constraint({"x": 1.0}, 1.0)
        with pytest.raises(RecourseInfeasibleError, match="status 4: numerical trouble"):
            solve_binary_program(program)


class TestParametricBound:
    """The cached dual bound equals the true LP relaxation value."""

    @pytest.mark.parametrize("seed", range(8))
    def test_lp_bound_matches_linprog(self, seed):
        rng = np.random.default_rng(seed)
        skeleton = random_skeleton(rng)
        max_gain = float(skeleton.suffix_gain[0])
        for fraction in (0.15, 0.45, 0.85):
            needed = fraction * max_gain
            if needed <= FEASIBILITY_TOL:
                continue
            bound = skeleton.lp_bound(needed)
            reference = lp_value_via_linprog(skeleton, needed)
            assert reference is not None
            assert bound == pytest.approx(reference, abs=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_infeasibility_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        skeleton = random_skeleton(rng)
        needed = float(skeleton.suffix_gain[0]) + 0.5
        assert skeleton.lp_bound(needed) == np.inf
        assert lp_value_via_linprog(skeleton, needed) is None
        assert greedy_cover(skeleton, needed) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_cover_is_feasible(self, seed):
        rng = np.random.default_rng(seed)
        skeleton = random_skeleton(rng)
        max_gain = float(skeleton.suffix_gain[0])
        for fraction in (0.2, 0.6, 0.95):
            needed = fraction * max_gain
            if needed <= FEASIBILITY_TOL:
                continue
            covered = greedy_cover(skeleton, needed)
            assert covered is not None
            selection, cost = covered
            gain = sum(
                float(skeleton.opt_gains[r][j])
                for r, j in enumerate(selection)
                if j >= 0
            )
            assert gain >= needed - FEASIBILITY_TOL
            assert cost == pytest.approx(
                sum(
                    float(skeleton.opt_costs[r][j])
                    for r, j in enumerate(selection)
                    if j >= 0
                ),
                abs=1e-12,
            )
            # The greedy cost can never undercut the LP bound.
            assert cost >= skeleton.lp_bound(needed) - 1e-9
