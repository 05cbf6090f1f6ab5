"""Exact and anytime recourse solving.

Property suite for the signature kernel: the parametric frontier
search must agree with the scipy/HiGHS MILP oracle of
``tests/oracles.py``, a row's answer must be the same bits whether it is
solved alone or in a batch, each unsolved signature must reach the batch
kernel once and the search must stop at an expired deadline within a
level, and anytime mode's certified optimality gap must genuinely
upper-bound the distance to the exact optimum.
"""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import milp_frontier_search, skeleton_matrices
from scipy.optimize import linprog

from repro.core import recourse_kernel
from repro.core.recourse import Recourse, RecourseAction, RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
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


def negative_rows(estimator: ScoreEstimator, limit: int | None = None) -> Table:
    """The negative-decision rows, the first ``limit`` of them, as a cohort."""
    negatives = np.nonzero(~estimator._positive)[0]
    return estimator._features.take(negatives[:limit])


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
    c, A_ub, b_ub = skeleton_matrices(skeleton, needed)
    if len(c) == 0:
        return 0.0 if needed <= FEASIBILITY_TOL else None
    result = linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, 1)] * len(c), method="highs"
    )
    if not result.success:
        return None
    return float(result.fun)


def use_milp_oracle(monkeypatch) -> list[int]:
    """Swap the kernel's frontier search for the HiGHS MILP of
    ``tests/oracles.py``; returns the programs handed to it per call."""
    calls = []

    def oracle(pack, rows, needed):
        calls.append(len(rows))
        return milp_frontier_search(pack, rows, needed)

    monkeypatch.setattr(recourse_kernel, "frontier_search", oracle)
    return calls


def solve_all(solver, rows, alpha):
    """One-row answers per row of ``rows``; ``None`` where it is infeasible."""
    out = []
    for i in range(len(rows)):
        try:
            out.append(solver.solve_batch(rows.take([i]), alpha=alpha)[0])
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
        calls = use_milp_oracle(monkeypatch)
        oracle = solve_all(RecourseSolver(estimator, actionable), rows, alpha)
        # The oracle really answered: the kernel is not compared with itself.
        assert sum(calls) > 10
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
        calls = use_milp_oracle(monkeypatch)
        oracle = solve_all(
            RecourseSolver(estimator, actionable, cost_fn=lopsided), rows, 0.6
        )
        assert sum(calls) > 5
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
        for i, b in enumerate(batch):
            if b is None:
                with pytest.raises(RecourseInfeasibleError):
                    scalar_solver.solve_batch(rows.take([i]), alpha=0.6)
                continue
            # Bit identity of the whole answer, not approximate agreement.
            assert scalar_solver.solve_batch(rows.take([i]), alpha=0.6)[0] == b


def record_kernel_calls(monkeypatch) -> list:
    """Wrap ``recourse_kernel.solve_signature``; logs each call's base log-odds."""
    calls = []
    real = recourse_kernel.solve_signature

    def recording(pack, rows, base_logits, *args, **kwargs):
        calls.append(list(base_logits))
        return real(pack, rows, base_logits, *args, **kwargs)

    monkeypatch.setattr(recourse_kernel, "solve_signature", recording)
    return calls


class TestBatchKernel:
    """``solve_batch`` hands its unsolved signatures to one kernel call."""

    def test_each_distinct_signature_reaches_the_kernel_once(self, monkeypatch):
        estimator = make_estimator(seed=6)
        solver = RecourseSolver(estimator, ["skill", "hours"])
        rows = negative_rows(estimator, limit=80)
        names = solver.actionable + solver.context_names
        distinct = {tuple(codes) for codes in rows.codes_matrix(names)}
        assert len(distinct) < len(rows)  # the cohort really collides
        calls = record_kernel_calls(monkeypatch)
        first = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert [len(call) for call in calls] == [len(distinct)]
        assert solver.solution_memo_stats()["signature_solves"] == len(distinct)
        # A repeat is served from the memo: no kernel call, same objects.
        again = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(calls) == 1
        assert all(a is b for a, b in zip(first, again))
        # A wider batch hands the kernel only the signatures still unsolved.
        wider = negative_rows(estimator)
        solver.solve_batch(wider, alpha=0.6, on_infeasible="none")
        fresh = {tuple(codes) for codes in wider.codes_matrix(names)} - distinct
        assert len(fresh) > 0
        assert [len(call) for call in calls] == [len(distinct), len(fresh)]

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
        solver.solve_batch(rows.take(np.arange(40)), alpha=0.6, on_infeasible="none")
        first = solver.solution_memo_stats()["signature_solves"]
        assert passes == [first]
        # The wider batch scores only what the first one left unsolved.
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        total = solver.solution_memo_stats()["signature_solves"]
        assert passes == [first, total - first] and total > first
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(passes) == 2

    def test_deadline_is_checked_once_per_level(self, monkeypatch):
        estimator = make_estimator(seed=6)
        rows = negative_rows(estimator, limit=80)
        reference = RecourseSolver(estimator, ["skill", "hours"]).solve_batch(
            rows, alpha=0.6, on_infeasible="none"
        )
        # The deadline module's clock, skewed an hour ahead on demand.
        skew = [0.0]
        monkeypatch.setattr(
            _deadline,
            "time",
            SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0]),
        )
        checks = []
        real_check = _deadline.check

        def check(what):
            real_check(what)
            if what == "recourse search level":
                checks.append(what)
                if expire_after[0] == len(checks):
                    # The deadline passes while this level is searched.
                    skew[0] = 3600.0

        monkeypatch.setattr(_deadline, "check", check)
        expire_after = [None]
        RecourseSolver(estimator, ["skill", "hours"]).solve_batch(
            rows, alpha=0.6, on_infeasible="none"
        )
        # One check per level: the root level and one per actionable rank.
        levels = len(checks)
        assert 2 <= levels <= 3
        checks.clear()
        expire_after[0] = 1
        solver = RecourseSolver(estimator, ["skill", "hours"])
        with _deadline.scope(60_000), pytest.raises(
            DeadlineExceededError, match="recourse search level"
        ):
            solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        # Raised at the second level's check, with nothing memoised; a
        # retry without a deadline answers like a fresh solver.
        assert len(checks) == 1
        assert solver.solution_memo_stats()["solved_signatures"] == 0
        skew[0] = 0.0
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

    def test_solver_takes_no_budget_options(self):
        # The node and refinement budgets are recourse_kernel constants.
        estimator = make_estimator(seed=0)
        with pytest.raises(TypeError):
            RecourseSolver(estimator, ["skill"], max_nodes=10)
        solver = RecourseSolver(estimator, ["skill"])
        rows = negative_rows(estimator, limit=5)
        with pytest.raises(TypeError):
            solver.solve_batch(rows, alpha=0.6, max_refinements=1)
        row = solver._skeleton_row((0,))
        for option in ({"max_refinements": 4}, {"node_limit": 10}):
            with pytest.raises(TypeError):
                recourse_kernel.solve_signature(
                    solver._pack, [row], [-1.0], 0.6, **option
                )


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
        rows = negative_rows(estimator, limit=15)
        for recourse in solver.solve_batch(rows, alpha=0.6, on_infeasible="none"):
            if recourse is None:
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
