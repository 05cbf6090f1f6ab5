"""Parallel, warm-started and anytime recourse solving.

Property suite for the throughput PR: the parametric engine must agree
with the scipy/HiGHS MILP oracle, parallel batches must be bit-identical
to serial ones, warm starts must never change answers, and anytime
mode's certified optimality gap must genuinely upper-bound the distance
to the exact optimum.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

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
from repro.utils.exceptions import RecourseInfeasibleError


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


class TestEngineParity:
    """The parametric engine agrees with the scipy/HiGHS MILP oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_objectives_match_milp(self, seed, alpha):
        estimator = make_estimator(seed=seed)
        actionable = ["skill", "hours", "degree"]
        fast = RecourseSolver(estimator, actionable, engine="parametric")
        oracle = RecourseSolver(estimator, actionable, engine="milp")
        checked = 0
        for row in negative_rows(estimator, limit=60):
            try:
                a = fast.solve(row, alpha=alpha)
            except RecourseInfeasibleError:
                with pytest.raises(RecourseInfeasibleError):
                    oracle.solve(row, alpha=alpha)
                continue
            b = oracle.solve(row, alpha=alpha)
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            assert a.n_constraints == b.n_constraints
            assert a.n_variables == b.n_variables
            checked += 1
        assert checked > 10

    def test_custom_costs_match_milp(self):
        estimator = make_estimator(seed=3)

        def lopsided(attribute: str, current: int, new: int) -> float:
            return 2.5 if attribute == "skill" else 0.5 * abs(new - current)

        fast = RecourseSolver(
            estimator, ["skill", "hours"], cost_fn=lopsided, engine="parametric"
        )
        oracle = RecourseSolver(
            estimator, ["skill", "hours"], cost_fn=lopsided, engine="milp"
        )
        checked = 0
        for row in negative_rows(estimator, limit=40):
            try:
                a = fast.solve(row, alpha=0.6)
            except RecourseInfeasibleError:
                continue
            b = oracle.solve(row, alpha=0.6)
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            checked += 1
        assert checked > 5


class TestParallelBitIdentity:
    """workers/chunking/warm starts change wall-clock, never answers."""

    def _batches(self, monkeypatch, workers, mp_context=None):
        # Small chunks force several payloads so the pool actually
        # partitions the work; parallel_threshold=1 lets a small cohort
        # take the pool path at all.
        monkeypatch.setattr(
            "repro.core.recourse.adaptive_chunk_size", lambda *a, **k: 5
        )
        estimator = make_estimator(seed=4)
        solver = RecourseSolver(estimator, ["skill", "hours", "degree"])
        solver.parallel_threshold = 1
        rows = negative_rows(estimator, limit=80)
        out = solver.solve_batch(
            rows, alpha=0.6, on_infeasible="none", workers=workers,
            mp_context=mp_context,
        )
        return solver, rows, out

    def test_serial_and_parallel_agree_exactly(self, monkeypatch):
        serial_solver, rows, serial = self._batches(monkeypatch, workers=None)
        parallel_solver, _, parallel = self._batches(monkeypatch, workers=2)
        assert parallel_solver.solution_memo_stats()["parallel_batches"] == 1
        assert serial_solver.solution_memo_stats()["parallel_batches"] == 0
        assert len(serial) == len(parallel) == len(rows)
        for a, b in zip(serial, parallel):
            if a is None:
                assert b is None
                continue
            # Bit identity, not approximate agreement.
            assert a.as_dict() == b.as_dict()
            assert a.total_cost == b.total_cost
            assert a.estimated_sufficiency == b.estimated_sufficiency
            assert a.estimated_probability == b.estimated_probability
            assert a.threshold == b.threshold

    def test_spawn_context_agrees_exactly(self, monkeypatch):
        _, _, serial = self._batches(monkeypatch, workers=None)
        _, _, spawned = self._batches(monkeypatch, workers=2, mp_context="spawn")
        for a, b in zip(serial, spawned):
            if a is None:
                assert b is None
                continue
            assert a.as_dict() == b.as_dict()
            assert a.total_cost == b.total_cost

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
            s = scalar_solver.solve(row, alpha=0.6)
            # Warm-start donors exist only in the batch path; the seeded
            # search must still return the scalar path's canonical answer.
            # (Scalar scoring uses score_codes, batch uses the matrix
            # pass — identical to 1e-12, not to the last ulp.)
            assert s.as_dict() == b.as_dict()
            assert s.total_cost == b.total_cost
            assert s.threshold == pytest.approx(b.threshold, abs=1e-12)

    def test_small_batches_stay_inline(self):
        estimator = make_estimator(seed=6)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=20)
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none", workers=4)
        # Below parallel_threshold no pool is spawned even with workers>1.
        assert solver.solution_memo_stats()["parallel_batches"] == 0

    def test_negative_workers_rejected(self):
        estimator = make_estimator(seed=6)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        with pytest.raises(ValueError, match="workers"):
            solver.solve_batch([estimator.table.row_codes(0)], workers=-1)


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
