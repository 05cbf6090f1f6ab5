"""The frontier search against the depth-first recursion it replaced.

``recourse_kernel.frontier_search`` searches every signature of a batch
level by level; ``tests/oracles.py::dfs_exact_step`` is the recursive
depth-first search that came before it, under the same written tie rule
(the cheapest set covering within ``FEASIBILITY_TOL``, and the first
depth-first among equally cheap sets).  The two must choose the same
set at the same cost, bit for bit:

* on hypothesis programs -- the ``COSTS`` / ``GAINS`` programs of
  ``test_recourse_exact.py`` and integer-cost programs, where ties are
  the rule -- each drawn batch searched together;
* on adult cohorts across alphas, where every ``Recourse`` of a solver
  must equal the one from a solver driven by the DFS oracle.

A batch of wide programs pins what the frontier holds: a fixed
tracemalloc peak, per-signature searches that a split at
``FRONTIER_CAP`` leaves unchanged, and a signature past its node budget
reading unreachable while the rest of its batch is answered.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import dfs_exact_step, dfs_frontier_search
from test_recourse_exact import GAINS, make_skeleton, signature_programs

from repro.core import recourse_kernel
from repro.core.recourse import RecourseSolver
from repro.core.recourse_kernel import frontier_search
from repro.opt.parametric import SignatureSkeleton, SkeletonPack


def assert_matches_dfs(programs: list[tuple[SignatureSkeleton, float]]) -> None:
    """Batch searches of ``programs`` against the DFS oracle, bit for bit.

    A pack holds programs of one width, so each width is one batch.
    """
    for width in {len(skeleton.attributes) for skeleton, _ in programs}:
        batch = [p for p in programs if len(p[0].attributes) == width]
        pack = SkeletonPack.of([skeleton for skeleton, _ in batch])
        result = frontier_search(pack, range(len(batch)), [n for _, n in batch])
        assert not result.exhausted.any()
        for i, (skeleton, needed) in enumerate(batch):
            oracle = dfs_exact_step(skeleton, needed)
            assert result.found[i] == (oracle is not None)
            if oracle is not None:
                selection, cost = oracle
                assert result.selection[i].tolist() == selection.tolist()
                assert result.objective[i] == cost


@given(st.lists(signature_programs(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_frontier_matches_dfs_on_float_programs(programs):
    assert_matches_dfs(programs)


@st.composite
def integer_cost_programs(draw) -> tuple[SignatureSkeleton, float]:
    """2-5 attributes of 0-4 options with small integer costs and needs on
    a half-unit grid, so that equally cheap sets abound."""
    options = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 3).map(float), GAINS), max_size=4
            ),
            min_size=2,
            max_size=5,
        )
    )
    best = sum(max([0.0, *(gain for _, gain in opts)]) for opts in options)
    needed = draw(st.integers(-1, int(2 * best) + 1)) / 2
    return make_skeleton(options), needed


@given(st.lists(integer_cost_programs(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_frontier_matches_dfs_on_integer_cost_programs(programs):
    assert_matches_dfs(programs)


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8, 0.9])
def test_adult_answers_match_a_dfs_driven_solver(
    alpha, adult_lewis_bundle, monkeypatch
):
    lewis, bundle = adult_lewis_bundle
    actionable = list(bundle.actionable)
    cohort = lewis.data.take(lewis.negative_indices())
    kernel = RecourseSolver(lewis.estimator, actionable).solve_batch(
        cohort, alpha=alpha, on_infeasible="none"
    )
    calls = []

    def oracle(pack, rows, needed):
        calls.append(len(rows))
        return dfs_frontier_search(pack, rows, needed)

    monkeypatch.setattr(recourse_kernel, "frontier_search", oracle)
    reference = RecourseSolver(lewis.estimator, actionable).solve_batch(
        cohort, alpha=alpha, on_infeasible="none"
    )
    assert sum(calls) > 50
    assert kernel == reference
    assert sum(r is not None and not r.is_empty for r in kernel) > 50


def wide_program(seed: int, attributes: int = 10, options: int = 5):
    rng = np.random.default_rng(seed)
    return SignatureSkeleton(
        [f"a{i}" for i in range(attributes)],
        [0] * attributes,
        [list(range(1, options + 1))] * attributes,
        [rng.uniform(0.1, 3.0, options).tolist() for _ in range(attributes)],
        [rng.uniform(0.0, 1.0, options).tolist() for _ in range(attributes)],
    )


def wide_batch(count: int) -> tuple[SkeletonPack, list[float]]:
    """``count`` wide programs, each needing 70% of its best gain."""
    skeletons = [wide_program(seed) for seed in range(count)]
    return SkeletonPack.of(skeletons), [0.7 * s.suffix_gain[0] for s in skeletons]


class TestWideBatch:
    def test_memory_follows_the_frontier_cap(self):
        pack, needed = wide_batch(256)
        tracemalloc.start()
        try:
            result = frontier_search(pack, range(256), needed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.found.all()
        # ~275k nodes in all: several caps' worth, split level by level.
        assert result.nodes.sum() > 8 * recourse_kernel.FRONTIER_CAP
        assert peak < 20 * 2**20

    def test_a_split_leaves_each_search_unchanged(self, monkeypatch):
        pack, needed = wide_batch(64)
        whole = frontier_search(pack, range(64), needed)
        monkeypatch.setattr(recourse_kernel, "FRONTIER_CAP", 256)
        split = frontier_search(pack, range(64), needed)
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)

    def test_a_signature_past_its_budget_reads_unreachable(self, monkeypatch):
        pack, needed = wide_batch(64)
        nodes = frontier_search(pack, range(64), needed).nodes
        budget = int(np.median(nodes))
        monkeypatch.setattr(recourse_kernel, "NODE_LIMIT", budget)
        result = frontier_search(pack, range(64), needed)
        over = nodes > budget
        assert 0 < over.sum() < 64
        assert result.exhausted.tolist() == over.tolist()
        assert result.found.tolist() == (~over).tolist()
        # The rest of the batch is answered as the DFS oracle answers it.
        for i in np.flatnonzero(~over):
            selection, cost = dfs_exact_step(pack.skeletons[i], needed[i])
            assert result.selection[i].tolist() == selection.tolist()
            assert result.objective[i] == cost
            assert result.nodes[i] == nodes[i]
