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

A set covers when its gain comes within ``FEASIBILITY_TOL`` (1e-9) of
``needed``, and the search bounds every node at ``remaining -
FEASIBILITY_TOL``, so the step's cost equals the least cost of any set
that covers with that slack, gains subtracted from ``needed`` in the
kernel's rank order, as the enumeration here does too.

Small hand-made programs pin the cases one at a time: the program's
bookkeeping and its scipy matrices, negative costs, exclusivity, an
uncoverable or empty program, the frontier-node counter, the kernel's
node budget, and how the oracle reads HiGHS's statuses.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import gain_of, milp_frontier_search, skeleton_matrices, solve_ip_milp

from repro.core import recourse_kernel
from repro.core.recourse import program_skeleton, unit_step_cost
from repro.core.recourse_kernel import exact_step, frontier_search, solve_signature
from repro.estimation.logit import logit
from repro.data.table import Column, Table
from repro.opt.parametric import (
    FEASIBILITY_TOL,
    SignatureSkeleton,
    SkeletonPack,
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
    """Least cost over every action set covering ``needed`` within the slack.

    Gains are subtracted from ``needed`` and costs added up in the
    kernel's rank order, so the two agree to the bit; ``None`` when no
    set covers.
    """
    per_rank = [
        list(zip(skeleton.costs[a], skeleton.gains[a])) + [(0.0, 0.0)]
        for a in skeleton.order
    ]
    best = None
    for picks in itertools.product(*per_rank):
        cost, remaining = 0.0, float(needed)
        for step_cost, gain in picks:
            cost += float(step_cost)
            remaining -= float(gain)
        if remaining <= FEASIBILITY_TOL:
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
# covering without it 0, and the step returns the former.
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
    cheapest = enumerate_cheapest(skeleton, needed)
    solved = exact_step(skeleton, needed)
    if solved is None:
        assert cheapest is None
        return
    chosen, objective, gain = solved
    assert objective == cheapest
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

    def test_stats_count_search_nodes(self):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        stats = {"nodes": 0}
        # At 3: the root, its 2 children, their 4, and the 4 children
        # of the two nodes that still need a0 -- 11 frontier nodes.
        assert exact_step(skeleton, 3.0, stats) == ({"a1": 1, "a0": 1}, 4.0, 3.0)
        assert stats == {"nodes": 11}
        # At 2 taking a1 covers on level 1; of the no-op's 2 children,
        # the one that takes a2 ties at 3 and loses to a1, which comes
        # first, and the other cannot cover: 5 nodes.
        assert exact_step(skeleton, 2.0, stats) == ({"a1": 1}, 3.0, 2.0)
        assert stats == {"nodes": 16}

    def test_node_budget_exhaustion_raises(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        # The search at 2 takes 5 frontier nodes: a budget of 5 is enough.
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", 5)
        assert exact_step(skeleton, 2.0)[1] == 3.0
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", 4)
        with pytest.raises(RecourseInfeasibleError, match="node limit"):
            exact_step(skeleton, 2.0)

    @staticmethod
    def record_searches(monkeypatch, search=frontier_search) -> list[list[float]]:
        """Route ``solve_signature``'s exact search through ``search``,
        recording the ``needed`` of each call."""
        calls = []

        def recording(pack, rows, needed):
            calls.append([float(need) for need in needed])
            return search(pack, rows, needed)

        monkeypatch.setattr(recourse_kernel, "frontier_search", recording)
        return calls

    @staticmethod
    def solve_one(skeleton, base_logit, alpha):
        """``solve_signature`` on a batch of one: its answer's fields."""
        pack = SkeletonPack.of([skeleton])
        answers = solve_signature(pack, [0], [base_logit], alpha)
        return SimpleNamespace(**{k: v[0] for k, v in answers._asdict().items()})

    def test_signature_past_its_node_budget_reads_unreachable(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        answer = self.solve_one(skeleton, -2.0, 0.5)
        assert answer.status == recourse_kernel.OK
        assert answer.nodes == 11
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", 10)
        searches = self.record_searches(monkeypatch)
        answer = self.solve_one(skeleton, -2.0, 0.5)
        assert answer.status == recourse_kernel.UNREACHABLE
        # One search per signature: an exhausted budget is not retried.
        assert len(searches) == 1

    def test_signature_is_solved_once_at_the_eq28_threshold(self, monkeypatch):
        skeleton = make_skeleton([[(1.0, 1.0)], [(3.0, 2.0)], [(3.0, 2.0)]])
        searches = self.record_searches(monkeypatch)
        answer = self.solve_one(skeleton, -2.0, 0.5)
        base = 1.0 / (1.0 + np.exp(2.0))
        threshold = min(base + 0.5 * (1.0 - base), 1.0 - 1e-6)
        assert answer.status == recourse_kernel.OK
        assert answer.threshold == threshold
        assert searches == [[logit(threshold) + 2.0]]
        assert answer.sufficiency >= 0.5 - 1e-9

    def test_short_solution_reads_unreachable(self, monkeypatch):
        """A solution whose re-scored sufficiency misses ``alpha`` by more
        than 1e-9 reads unreachable; no tighter threshold is tried."""
        skeleton = make_skeleton([[(1.0, 1.0)]])

        def short(pack, rows, needed):
            # a0's one option (index 0) gains 1, short of the 2.24 needed
            return recourse_kernel.SearchResult(
                np.zeros((1, 1), dtype=np.int64),
                np.ones(1),
                np.ones(1, dtype=bool),
                np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=bool),
            )

        searches = self.record_searches(monkeypatch, short)
        answer = self.solve_one(skeleton, -2.0, 0.5)
        assert answer.status == recourse_kernel.UNREACHABLE
        assert answer.sufficiency < 0.5 - 1e-9
        assert len(searches) == 1

    def test_unreachable_alphas_take_one_step(self, monkeypatch):
        """Eq. 28's threshold is clamped at ``1 - 1e-6``, so an option
        that just covers the clamped threshold misses these alphas: one
        search, then unreachable."""
        skeleton = make_skeleton([[(1.0, 15.9)]])
        searches = self.record_searches(monkeypatch)
        for alpha in (0.999999, 1.0):
            answer = self.solve_one(skeleton, -2.0, alpha)
            assert answer.status == recourse_kernel.UNREACHABLE
        assert len(searches) == 2


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

    def test_drop_in_returns_the_kernel_search_shape(self):
        skeleton = make_skeleton(
            [[(1.0, 0.4), (2.0, 0.9), (3.0, 1.5)], [(1.0, 0.4)], [(-0.5, 0.0)]]
        )
        needs = (-0.5, 0.0, 1.0, 1.9, 2.0)
        pack = SkeletonPack.of([skeleton])
        kernel = frontier_search(pack, [0] * len(needs), needs)
        oracle = milp_frontier_search(pack, [0] * len(needs), needs)
        # At 2.0 no set covers: the best gains add up to 1.9.
        assert oracle.found.tolist() == kernel.found.tolist() == [True] * 4 + [False]
        for needed, selection, cost, reference in zip(
            needs[:4], oracle.selection, oracle.objective, kernel.objective
        ):
            assert cost == pytest.approx(reference, abs=1e-9)
            chosen = selection_to_codes(skeleton, selection)
            assert selection_stats(skeleton, selection)[0] == pytest.approx(cost)
            assert gain_of(skeleton, chosen) >= needed - FEASIBILITY_TOL


THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


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
