"""The one exact solver for recourse programs.

LEWIS recourse and the LinearIP baseline solve the same 0-1 program
through ``recourse_kernel.exact_step``.  Two checks hold it exact:

* against enumeration of every action set (one option or none per
  attribute) on random signature programs, with zero, tied and negative
  costs, gains of both signs and ``needed`` on both sides of the best
  achievable gain;
* against the scipy/HiGHS MILP oracle of ``tests/oracles.py`` on the
  LinearIP programs of german and adult negative rows across success
  thresholds.  Equal-cost optima may pick different action sets, so
  the comparison is feasibility and cost.

The step accepts an action set whose gain falls short of ``needed`` by
at most ``FEASIBILITY_TOL`` (1e-9), but its LP bounds ask for the full
``needed``.  So its cost lies between the cheapest set that covers with
that slack and the cheapest set that covers without it, and it finds a
set whenever one covers without the slack.  The two minima are equal
unless some set's gain lands inside the 1e-9 band below ``needed``.

Small hand-made programs pin the cases one at a time: the program's
bookkeeping and its scipy matrices, negative costs, exclusivity, an
uncoverable or empty program, the certificate and node counters, the
kernel's node budget, and how the oracle reads HiGHS's statuses.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import gain_of, milp_exact_step, skeleton_matrices, solve_ip_milp

from repro import Lewis, fit_table_model, load_dataset, train_test_split
from repro.core import recourse_kernel
from repro.core.recourse import program_skeleton, unit_step_cost
from repro.core.recourse_kernel import exact_step, solve_signature
from repro.estimation.logit import logit
from repro.data.table import Column, Table
from repro.opt.parametric import (
    FEASIBILITY_TOL,
    SignatureSkeleton,
    selection_stats,
    selection_to_codes,
)
from repro.utils.exceptions import RecourseInfeasibleError
from repro.xai.linear_ip import LinearIPRecourse

#: a few exact values so that costs and gains tie, plus a continuum
COSTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0]),
    st.floats(-1.0, 3.0, allow_nan=False, allow_subnormal=False),
)
GAINS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, -0.5]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
)


def make_skeleton(options: list[list[tuple[float, float]]]) -> SignatureSkeleton:
    """A program with one attribute per entry of ``(cost, gain)`` options."""
    return SignatureSkeleton(
        attributes=[f"a{i}" for i in range(len(options))],
        current=[0] * len(options),
        codes=[list(range(1, len(opts) + 1)) for opts in options],
        costs=[[cost for cost, _ in opts] for opts in options],
        gains=[[gain for _, gain in opts] for opts in options],
    )


@st.composite
def signature_programs(draw) -> tuple[SignatureSkeleton, float]:
    """A 1–4 attribute program with 0–3 options each, and its ``needed``."""
    options = draw(
        st.lists(
            st.lists(st.tuples(COSTS, GAINS), max_size=3), min_size=1, max_size=4
        )
    )
    best = sum(max([0.0, *(gain for _, gain in opts)]) for opts in options)
    needed = draw(st.floats(-0.5, best + 0.5, allow_nan=False, allow_subnormal=False))
    return make_skeleton(options), needed


def enumerate_cheapest(skeleton: SignatureSkeleton, needed: float) -> float | None:
    """Least cost over every action set gaining ``needed``; ``None`` if none."""
    per_attribute = [
        [(0.0, 0.0)] + list(zip(costs, gains))
        for costs, gains in zip(skeleton.costs, skeleton.gains)
    ]
    best = None
    for picks in itertools.product(*per_attribute):
        if sum(gain for _, gain in picks) >= needed:
            cost = sum(cost for cost, _ in picks)
            best = cost if best is None else min(best, cost)
    return best


def cost_of(skeleton: SignatureSkeleton, chosen: dict[str, int]) -> float:
    index = {a: i for i, a in enumerate(skeleton.attributes)}
    return sum(
        float(skeleton.costs[index[a]][list(skeleton.codes[index[a]]).index(code)])
        for a, code in chosen.items()
    )


@given(signature_programs())
# A gain of -6e-190 lies inside the slack: covering with it costs -0.5,
# covering without it 0, and the step returns the latter.
@example((make_skeleton([[(-1.0, -0.5), (-0.5, -5.95e-190)]]), 0.0))
# Regression: options whose gains differ by ~2e-308 meet at y ~ 9e307 on
# the dual grid, where the bound overflowed to nan and the step called
# this coverable program infeasible.
@example(
    (make_skeleton([[(0.0, 1.0)], [(0.0, 1.0), (2.0, 2.2250738585072014e-308)]]), 2.0)
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exact_step_matches_enumeration(program):
    skeleton, needed = program
    strict = enumerate_cheapest(skeleton, needed)
    slack = enumerate_cheapest(skeleton, needed - FEASIBILITY_TOL)
    solved = exact_step(skeleton, needed)
    if solved is None:
        assert strict is None
        return
    assert slack is not None
    chosen, objective, gain = solved
    assert objective >= slack - 1e-9
    if strict is not None:
        assert objective <= strict + 1e-9
    assert cost_of(skeleton, chosen) == pytest.approx(objective, abs=1e-9)
    assert gain == pytest.approx(gain_of(skeleton, chosen), abs=1e-9)
    # 1e-12 on top of the slack: the step sums the gains in its own order.
    assert gain_of(skeleton, chosen) >= needed - FEASIBILITY_TOL - 1e-12


class TestSkeleton:
    """The program's solve-ready form and the oracle's scipy matrices."""

    def test_variable_and_row_bookkeeping(self):
        skeleton = make_skeleton([[(1.0, 0.5), (2.0, 1.0)], [], [(0.0, 0.3)]])
        assert skeleton.attributes == ["a0", "a1", "a2"]
        assert skeleton.n_variables == 3
        # One exclusivity row per attribute with options, plus the cover.
        assert skeleton.n_constraints == 3

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            SignatureSkeleton(["a", "b"], [0, 0], [[1]], [[1.0]], [[0.5]])

    def test_program_skeleton_prices_the_non_current_codes(self):
        table = Table(
            [
                Column.from_codes("a", np.array([0, 1, 2, 3]), (0, 1, 2, 3)),
                Column.from_codes("b", np.array([0, 1, 0, 1]), (0, 1)),
            ]
        )
        coefficients = {"a": [0.0, 0.5, 0.7, 2.0], "b": [0.0, -1.0]}
        skeleton = program_skeleton(
            table, ["a", "b"], [1, 1], unit_step_cost, coefficients
        )
        assert skeleton.current == (1, 1)
        assert [c.tolist() for c in skeleton.codes] == [[0, 2, 3], [0]]
        assert [c.tolist() for c in skeleton.costs] == [[1.0, 1.0, 2.0], [1.0]]
        # A gain is the code's coefficient minus the current code's.
        assert skeleton.gains[0].tolist() == pytest.approx([-0.5, 0.2, 1.5])
        assert skeleton.gains[1].tolist() == [1.0]

    def test_oracle_matrices_shapes(self):
        skeleton = make_skeleton([[(1.0, 0.5), (2.0, 1.0)], [], [(3.0, 0.3)]])
        c, A_ub, b_ub = skeleton_matrices(skeleton, 0.7)
        assert c.tolist() == [1.0, 2.0, 3.0]
        # The attribute without options gets no exclusivity row.
        assert A_ub.shape == (3, 3)
        assert A_ub[:2].tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert b_ub[:2].tolist() == [1.0, 1.0]

    def test_covering_row_stored_negated(self):
        skeleton = make_skeleton([[(1.0, 0.5), (2.0, 1.0)], [], [(3.0, 0.3)]])
        _, A_ub, b_ub = skeleton_matrices(skeleton, 0.7)
        assert A_ub[-1].tolist() == [-0.5, -1.0, -0.3]
        assert b_ub[-1] == -0.7

    def test_selection_maps_ranks_back_to_codes(self):
        skeleton = make_skeleton([[(1.0, 0.5)], [(1.0, 2.0), (4.0, 1.0)]])
        # Ranks run by descending best gain, options by descending gain,
        # and each rank ends with the no-op (the current code).
        assert skeleton.order.tolist() == [1, 0]
        assert skeleton.opt_codes[0].tolist() == [1, 2, 0]
        assert skeleton.opt_codes[1].tolist() == [1, 0]
        assert selection_to_codes(skeleton, np.array([1, -1])) == {"a1": 2}
        assert selection_to_codes(skeleton, np.array([0, 1])) == {"a1": 1}
        assert selection_stats(skeleton, np.array([1, 0])) == (5.0, 1.5)


class TestExactStep:
    """Hand-made programs with known optima."""

    def test_nonpositive_need_takes_the_negative_costs_that_keep_the_cover(self):
        skeleton = make_skeleton(
            [[(-2.0, 0.1)], [(3.0, 0.5)], [(-1.0, -0.2), (0.5, 0.4)]]
        )
        # a2's negative cost would take the gain below 0.
        assert exact_step(skeleton, 0.0) == ({"a0": 1}, -2.0, 0.1)
        chosen, cost, _ = exact_step(skeleton, -1.0)
        assert chosen == {"a0": 1, "a2": 1}
        assert cost == -3.0

    def test_cheapest_combination_that_covers(self):
        skeleton = make_skeleton([[(6.0, 1.0)], [(10.0, 2.0)], [(12.0, 3.0)]])
        chosen, cost, gain = exact_step(skeleton, 5.0)
        assert chosen == {"a1": 1, "a2": 1}
        assert cost == 22.0
        assert gain == 5.0

    def test_positive_need_forces_selection(self):
        skeleton = make_skeleton([[(5.0, 1.0)]])
        assert exact_step(skeleton, 0.0) == ({}, 0.0, 0.0)
        assert exact_step(skeleton, 1.0) == ({"a0": 1}, 5.0, 1.0)

    def test_one_option_per_attribute(self):
        # Two options of one attribute never add up ...
        assert exact_step(make_skeleton([[(1.0, 0.6), (1.0, 0.6)]]), 1.0) is None
        # ... while the same options on two attributes do.
        both = exact_step(make_skeleton([[(1.0, 0.6)], [(1.0, 0.6)]]), 1.0)
        assert both == ({"a0": 1, "a1": 1}, 2.0, 1.2)

    def test_uncoverable_need_returns_none(self):
        skeleton = make_skeleton([[(1.0, 0.5), (2.0, 0.9)], [(1.0, -0.3)]])
        assert exact_step(skeleton, 0.9) == ({"a0": 2}, 2.0, 0.9)
        assert exact_step(skeleton, 0.9 + 1e-6) is None
        assert solve_ip_milp(skeleton, 0.9 + 1e-6) is None

    def test_empty_program(self):
        skeleton = make_skeleton([])
        assert exact_step(skeleton, 0.0) == ({}, 0.0, 0.0)
        assert exact_step(skeleton, -1.0) == ({}, 0.0, 0.0)
        assert exact_step(skeleton, 0.5) is None
        assert solve_ip_milp(skeleton, 0.0) == ({}, 0.0)
        assert solve_ip_milp(skeleton, 0.5) is None

    def test_exclusivity_rows_like_recourse(self):
        # Two attributes with 3 candidate values each: the cheapest pair
        # meeting the gain threshold.  (0.4, 1.5) and (0.9, 0.9) tie at 4.
        options = [(1.0, 0.4), (2.0, 0.9), (3.0, 1.5)]
        skeleton = make_skeleton([options, options])
        chosen, cost, gain = exact_step(skeleton, 1.6)
        assert gain >= 1.6
        assert cost == pytest.approx(4.0)
        assert cost == pytest.approx(enumerate_cheapest(skeleton, 1.6), abs=1e-9)
        assert cost == pytest.approx(solve_ip_milp(skeleton, 1.6)[1], abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_and_oracle_on_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        options = [
            [(float(rng.normal()), float(rng.normal())) for _ in range(rng.integers(0, 5))]
            for _ in range(5)
        ]
        skeleton = make_skeleton(options)
        best = sum(max([0.0, *(gain for _, gain in opts)]) for opts in options)
        outcomes = set()
        for needed in np.linspace(-0.5, best + 0.5, 7):
            reference = enumerate_cheapest(skeleton, needed)
            solved = exact_step(skeleton, needed)
            oracle = solve_ip_milp(skeleton, needed)
            outcomes.add(reference is None)
            if reference is None:
                assert solved is None and oracle is None
                continue
            chosen, cost, gain = solved
            assert cost == pytest.approx(reference, abs=1e-9)
            assert oracle[1] == pytest.approx(reference, abs=1e-9)
            assert cost_of(skeleton, chosen) == pytest.approx(cost, abs=1e-9)
            assert gain_of(skeleton, chosen) >= needed - FEASIBILITY_TOL
        # The sweep ends past the best gain, so both answers occur.
        assert outcomes == {True, False}

    def test_stats_count_certificates_and_search_nodes(self):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        stats = {"certified": 0, "nodes": 0}
        # At 3 the greedy a0 + a1 costs 4, the LP root bound: certified.
        assert exact_step(skeleton, 3.0, stats)[1] == 4.0
        assert stats == {"certified": 1, "nodes": 0}
        # At 2 the greedy's 3 sits above the bound 2.5: the search runs.
        assert exact_step(skeleton, 2.0, stats)[1] == 3.0
        assert stats["certified"] == 1
        assert stats["nodes"] > 0

    def test_node_budget_exhaustion_raises(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", 2)
        with pytest.raises(RecourseInfeasibleError, match="node limit"):
            exact_step(skeleton, 2.0)
        # A certified cover runs no search, so no budget applies.
        assert exact_step(skeleton, 3.0)[1] == 4.0

    @staticmethod
    def record_steps(monkeypatch, step=exact_step) -> list[float]:
        """Route ``solve_signature``'s exact steps through ``step``,
        recording the ``needed`` of each call."""
        calls = []

        def recording(skeleton, needed, stats=None):
            calls.append(needed)
            return step(skeleton, needed, stats)

        monkeypatch.setattr(recourse_kernel, "exact_step", recording)
        return calls

    def test_signature_past_its_node_budget_reads_unreachable(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        answer = solve_signature(skeleton, -2.0, 0.5)
        assert answer["status"] == "ok"
        assert answer["stats"]["nodes"] > 2
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", 2)
        steps = self.record_steps(monkeypatch)
        answer = solve_signature(skeleton, -2.0, 0.5)
        assert answer["status"] == "infeasible"
        assert answer["reason"] == "unreachable"
        # One step per signature: an exhausted budget is not retried.
        assert len(steps) == 1

    def test_signature_is_solved_once_at_the_eq28_threshold(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        steps = self.record_steps(monkeypatch)
        answer = solve_signature(skeleton, -2.0, 0.5)
        base = 1.0 / (1.0 + np.exp(2.0))
        threshold = min(base + 0.5 * (1.0 - base), 1.0 - 1e-6)
        assert answer["status"] == "ok"
        assert answer["threshold"] == threshold
        assert steps == [logit(threshold) + 2.0]
        assert answer["sufficiency"] >= 0.5 - 1e-9
        assert set(answer["stats"]) == {"nodes", "certified"}

    def test_short_solution_reads_unreachable(self, monkeypatch):
        """A solution whose re-scored sufficiency misses ``alpha`` by more
        than 1e-9 reads unreachable; no tighter threshold is tried."""
        skeleton = make_skeleton([[(1.0, 1.0)]])

        def short(skeleton, needed, stats=None):
            return {"a0": 1}, 1.0, needed - 1e-3

        steps = self.record_steps(monkeypatch, short)
        answer = solve_signature(skeleton, -2.0, 0.5)
        assert answer["status"] == "infeasible"
        assert answer["reason"] == "unreachable"
        assert len(steps) == 1

    def test_unreachable_alphas_take_one_step(self, monkeypatch):
        """Eq. 28's threshold is clamped at ``1 - 1e-6``, so an option
        that just covers the clamped threshold misses these alphas: one
        step, then unreachable."""
        skeleton = make_skeleton([[(1.0, 15.9)]])
        steps = self.record_steps(monkeypatch)
        for alpha in (0.999999, 1.0):
            answer = solve_signature(skeleton, -2.0, alpha)
            assert answer["status"] == "infeasible"
            assert answer["reason"] == "unreachable"
        assert len(steps) == 2


class TestMilpOracle:
    """The HiGHS oracle reads every status, and drops in for the step."""

    @staticmethod
    def fake_milp(monkeypatch, status: int, message: str = "") -> None:
        result = SimpleNamespace(
            status=status, success=False, message=message, x=None, fun=None
        )
        monkeypatch.setattr(oracles, "milp", lambda c, **kwargs: result)

    def test_infeasible_status_returns_none(self, monkeypatch):
        self.fake_milp(monkeypatch, 2, "infeasible")
        assert solve_ip_milp(make_skeleton([[(1.0, 1.0)]]), 1.0) is None

    def test_unexpected_status_raises_naming_it(self, monkeypatch):
        self.fake_milp(monkeypatch, 4, "numerical trouble")
        with pytest.raises(RuntimeError, match="status 4: numerical trouble"):
            solve_ip_milp(make_skeleton([[(1.0, 1.0)]]), 1.0)

    def test_drop_in_returns_the_kernel_step_shape(self):
        skeleton = make_skeleton(
            [[(1.0, 0.4), (2.0, 0.9), (3.0, 1.5)], [(1.0, 0.4)], [(-0.5, 0.0)]]
        )
        for needed in (-0.5, 0.0, 1.0, 1.9, 2.0):
            kernel = exact_step(skeleton, needed)
            oracle = milp_exact_step(skeleton, needed)
            assert (kernel is None) == (oracle is None)
            if kernel is None:
                continue
            chosen, cost, gain = oracle
            assert cost == pytest.approx(kernel[1], abs=1e-9)
            assert gain == gain_of(skeleton, chosen)
            assert gain >= needed - FEASIBILITY_TOL


THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@pytest.fixture(scope="module")
def adult_lewis_bundle():
    bundle = load_dataset("adult", n_rows=2_000, seed=0)
    train, test = train_test_split(bundle.table, seed=0)
    model = fit_table_model(
        "random_forest",
        train,
        bundle.feature_names,
        bundle.label,
        seed=0,
        n_estimators=15,
        max_depth=8,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph, positive_outcome=bundle.positive_label
    )
    return lewis, bundle


@pytest.mark.parametrize("dataset", ["german", "adult"])
def test_linear_ip_matches_milp_oracle(
    dataset, request, german_lewis, german_bundle
):
    if dataset == "german":
        lewis, bundle = german_lewis, german_bundle
    else:
        lewis, bundle = request.getfixturevalue("adult_lewis_bundle")
    linear_ip = LinearIPRecourse(lewis.data, lewis.positive, bundle.actionable)
    feasible = infeasible = 0
    for index in lewis.negative_indices()[:30]:
        row = lewis.data.row_codes(int(index))
        for threshold in THRESHOLDS:
            skeleton, needed = linear_ip.program(row, threshold)
            oracle = solve_ip_milp(skeleton, needed)
            if oracle is None:
                with pytest.raises(RecourseInfeasibleError):
                    linear_ip.solve(row, threshold)
                infeasible += 1
                continue
            result = linear_ip.solve(row, threshold)
            assert result.total_cost == pytest.approx(oracle[1], abs=1e-9)
            assert result.total_cost == sum(a.cost for a in result.actions)
            assert result.achieved_probability >= threshold - 1e-9
            feasible += 1
    # The sweep covers both answers, as in Section 5.4.
    assert feasible > 20 and infeasible > 0
