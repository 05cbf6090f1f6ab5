"""Cohort recourse: custom-cost accounting, cache invalidation, audits.

Covers the satellite regressions of the cohort fast-path PR: reported
action costs must come from the solver's ``cost_fn`` (not a hardcoded
ordinal distance), cached solvers must be dropped when the underlying
table changes, and the bounded local-model cache must evict instead of
growing without limit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.recourse as recourse_module
from repro.core.lewis import Lewis
from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.utils.exceptions import RecourseInfeasibleError

from oracles import local_context, local_probability


def make_population(seed: int = 0, n: int = 240) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_codes(
        {
            "skill": rng.integers(0, 3, n),
            "hours": rng.integers(0, 3, n),
            "region": rng.integers(0, 2, n),
        },
        domains={"skill": [0, 1, 2], "hours": [0, 1, 2], "region": [0, 1]},
    )


def score_model(features: Table) -> np.ndarray:
    return (features.codes("skill") + features.codes("hours")) >= 3


def make_lewis(seed: int = 0, n: int = 240) -> Lewis:
    return Lewis(
        score_model,
        data=make_population(seed, n),
        feature_names=["skill", "hours", "region"],
        infer_orderings=False,
    )


class TestCustomCostAccounting:
    def test_reported_costs_use_cost_fn(self):
        """Per-action ``cost`` and ``total_cost`` agree with the objective.

        Regression: ``_actions`` hardcoded ``abs(code - current)`` as the
        reported action cost regardless of the solver's ``cost_fn``, so a
        custom pricing produced an inconsistent recourse card.
        """
        lewis = make_lewis()

        def lopsided(attribute: str, current: int, new: int) -> float:
            return 5.0 if attribute == "skill" else 0.25 * abs(new - current)

        negative = lewis.negative_indices()
        checked = 0
        for index in negative[:25]:
            try:
                recourse = lewis.recourse(
                    int(index),
                    actionable=["skill", "hours"],
                    alpha=0.6,
                    cost_fn=lopsided,
                )
            except Exception:
                continue
            for action in recourse.actions:
                current = lewis.data.column(action.attribute).code_of(
                    action.current_value
                )
                new = lewis.data.column(action.attribute).code_of(
                    action.new_value
                )
                assert action.cost == pytest.approx(
                    lopsided(action.attribute, current, new), abs=1e-12
                )
            if recourse.actions:
                checked += 1
                assert recourse.total_cost == pytest.approx(
                    sum(a.cost for a in recourse.actions), abs=1e-9
                )
        assert checked > 0, "no feasible non-empty recourse exercised the check"

    def test_unit_cost_unchanged(self):
        """The default cost function still reports ordinal distances."""
        lewis = make_lewis()
        for index in lewis.negative_indices()[:20]:
            try:
                recourse = lewis.recourse(
                    int(index), actionable=["skill", "hours"], alpha=0.6
                )
            except Exception:
                continue
            for action in recourse.actions:
                current = lewis.data.column(action.attribute).code_of(
                    action.current_value
                )
                new = lewis.data.column(action.attribute).code_of(action.new_value)
                assert action.cost == float(abs(new - current))


class TestSolverInvalidation:
    def test_recourse_after_append_reflects_new_rows(self):
        """A data delta must drop the cached solver's stale logit model."""
        lewis = make_lewis(seed=1, n=200)
        index = int(lewis.negative_indices()[0])
        before = lewis.recourse(index, actionable=["skill", "hours"], alpha=0.6)
        cached = lewis._recourse_solvers[(("hours", "skill"), None)][1]

        # Append a skewed block of rows; the refit logit must see them.
        inserts = [
            {"skill": 2, "hours": 2, "region": 0} for _ in range(150)
        ] + [{"skill": 0, "hours": 0, "region": 1} for _ in range(150)]
        lewis.apply_delta(inserted_rows=inserts)

        after = lewis.recourse(index, actionable=["skill", "hours"], alpha=0.6)
        fresh_solver = RecourseSolver(lewis.estimator, ["skill", "hours"])
        fresh = fresh_solver.solve_batch(lewis.data.take([index]), alpha=0.6)[0]
        refit = lewis._recourse_solvers[(("hours", "skill"), None)][1]
        assert refit is not cached
        assert after.as_dict() == fresh.as_dict()
        assert after.estimated_probability == pytest.approx(
            fresh.estimated_probability, abs=1e-12
        )
        # And the pre-update answer was genuinely computed on old data.
        assert before.threshold != pytest.approx(0.0)

    def test_version_mismatch_detected_without_lewis_apply_delta(self):
        """Even an estimator-level delta invalidates at next lookup."""
        lewis = make_lewis(seed=2, n=160)
        index = int(lewis.negative_indices()[0])
        lewis.recourse(index, actionable=["skill", "hours"], alpha=0.6)
        first = lewis._recourse_solvers[(("hours", "skill"), None)]

        extra = make_population(seed=9, n=40)
        positive = score_model(extra)
        lewis.estimator.apply_delta(extra, positive)

        lewis.recourse(index, actionable=["skill", "hours"], alpha=0.6)
        second = lewis._recourse_solvers[(("hours", "skill"), None)]
        assert second[0] > first[0]
        assert second[1] is not first[1]


class TestSolverCacheBound:
    def test_per_call_lambdas_do_not_grow_cache_unboundedly(self):
        """Identity-keyed cost_fn entries are LRU-evicted, not leaked."""
        lewis = make_lewis(seed=7, n=160)
        index = int(lewis.negative_indices()[0])
        for _ in range(20):
            lewis.recourse(
                index,
                actionable=["skill", "hours"],
                alpha=0.6,
                cost_fn=lambda a, c, n: float(abs(n - c)),
            )
        assert len(lewis._recourse_solvers) <= 16

    def test_memo_respects_alpha(self):
        """A larger alpha must not be served a smaller alpha's answer."""
        estimator = ScoreEstimator(
            make_population(seed=8, n=200), score_model(make_population(seed=8, n=200))
        )
        solver = RecourseSolver(estimator, actionable=["skill", "hours"])
        rows = estimator._features.take(np.arange(20))
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        small = solver.solution_memo_stats()["solved_signatures"]
        solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        # The same alpha re-serves its entries ...
        assert solver.solution_memo_stats()["solved_signatures"] == small
        strict = solver.solve_batch(rows, alpha=0.9, on_infeasible="none")
        # ... and another alpha occupies keys of its own.
        assert solver.solution_memo_stats()["solved_signatures"] == 2 * small
        for recourse in strict:
            if recourse is not None and not recourse.is_empty:
                assert recourse.estimated_sufficiency >= 0.9 - 1e-9


class TestBatchSizeIndependence:
    def test_row_answer_is_the_same_alone_or_in_a_cohort(
        self, german_bundle, german_lewis
    ):
        """``solve_batch(cohort.take([i]))[0] == solve_batch(cohort)[i]``.

        Bit for bit, in both ``on_infeasible`` modes.  Regression: the
        base log-odds came from a one-hot matrix product whose BLAS path
        depends on the row count, so a row solved alone could carry a
        threshold and probabilities a few ulps away from the same row's
        cohort answer.
        """
        lewis = german_lewis
        actionable = list(german_bundle.actionable)
        cohort = lewis.data.take(lewis.negative_indices())
        answers = RecourseSolver(lewis.estimator, actionable).solve_batch(
            cohort, alpha=0.7, on_infeasible="none"
        )
        # Every answer these two solvers memoise was solved at N = 1.
        raising = RecourseSolver(lewis.estimator, actionable)
        single = RecourseSolver(lewis.estimator, actionable)
        solved = 0
        for i, batched in enumerate(answers):
            row = cohort.take([i])
            alone = single.solve_batch(row, alpha=0.7, on_infeasible="none")[0]
            assert alone == batched
            if batched is None:
                with pytest.raises(RecourseInfeasibleError, match=r"^row 0: "):
                    raising.solve_batch(row, alpha=0.7)
                continue
            assert raising.solve_batch(row, alpha=0.7)[0] == batched
            solved += not batched.is_empty
        assert solved > 20


class TestSolverStats:
    def test_stats_are_memo_sizes_and_kernel_counters(self):
        lewis = make_lewis(seed=3)
        lewis.recourse_audit(["skill", "hours"], alpha=0.6)
        stats = lewis.solver_stats()
        assert set(stats) == {
            "solvers",
            "solved_signatures",
            "infeasible_signatures",
            "program_skeletons",
            "signature_solves",
            "search_nodes",
        }
        assert stats["solvers"] == 1
        # Every memoised answer came from exactly one kernel solve.
        assert stats["signature_solves"] == stats["solved_signatures"] > 0
        lewis.recourse_audit(["skill", "hours"], alpha=0.6)
        assert lewis.solver_stats() == stats


class TestMemoisedErrors:
    def test_memoised_infeasible_errors_hold_no_traceback(self):
        """A memoised error must not pin the solving frames' locals.

        Regression: ``_materialize`` raised the error and ``solve_batch``
        caught and memoised it, so each memo entry kept a traceback over
        the batch's frames (its cohort and arrays) alive.
        """
        table = make_population(seed=8, n=200)
        solver = RecourseSolver(
            ScoreEstimator(table, score_model(table)), actionable=["region"]
        )
        rows = table.take(np.arange(40))
        answers = solver.solve_batch(rows, alpha=0.9, on_infeasible="none")
        errors = [
            v for v in solver._solutions.values()
            if isinstance(v, RecourseInfeasibleError)
        ]
        assert errors and None in answers
        assert all(error.__traceback__ is None for error in errors)
        # raising mode still raises, chained to the memoised error
        with pytest.raises(RecourseInfeasibleError) as raised:
            solver.solve_batch(rows, alpha=0.9)
        assert raised.value.__cause__ in errors
        assert all(error.__traceback__ is None for error in errors)


class TestMemoBound:
    def test_bounded_memo_answers_equal_the_unbounded_solvers(self, monkeypatch):
        """A memo bound below a batch's distinct signatures evicts inside
        the batch; every answer still equals the unbounded solver's, and
        a rerun solves the evicted signatures again, to equal answers."""
        table = make_population(seed=8, n=200)
        estimator = ScoreEstimator(table, score_model(table))
        rows = table.take(np.arange(120))
        unbounded = RecourseSolver(estimator, actionable=["skill", "hours"])
        expected = unbounded.solve_batch(rows, alpha=0.8, on_infeasible="none")
        distinct = unbounded.solution_memo_stats()["signature_solves"]
        assert distinct > 4 and None in expected

        monkeypatch.setattr(recourse_module, "SOLUTION_MEMO_ENTRIES", 4)
        bounded = RecourseSolver(estimator, actionable=["skill", "hours"])
        assert bounded.solve_batch(rows, alpha=0.8, on_infeasible="none") == expected
        stats = bounded.solution_memo_stats()
        assert stats["solved_signatures"] == 4
        assert stats["signature_solves"] == distinct
        # the four memoised signatures answer the rerun; the rest re-solve
        assert bounded.solve_batch(rows, alpha=0.8, on_infeasible="none") == expected
        assert bounded.solution_memo_stats()["signature_solves"] == 2 * distinct - 4
        with pytest.raises(RecourseInfeasibleError):
            bounded.solve_batch(rows, alpha=0.8)


class TestRecourseAudit:
    def test_served_audit_is_independent_of_request_history(
        self, german_bundle
    ):
        """Same table, same query, same answer — whatever came before.

        Regression: the audit carried the solver's cumulative memo and
        search counters, so a session that had answered an earlier audit
        served (and cached) a different answer than a fresh one.
        """
        from repro import fit_table_model, train_test_split
        from repro.service import ExplainerSession

        train, test = train_test_split(
            german_bundle.table, test_fraction=0.5, seed=0
        )
        model = fit_table_model(
            "random_forest", train, german_bundle.feature_names,
            german_bundle.label, seed=0, n_estimators=5,
        )

        def session():
            lewis = Lewis(
                model, data=test, graph=german_bundle.graph,
                positive_outcome=german_bundle.positive_label,
            )
            return ExplainerSession(
                lewis, default_actionable=german_bundle.actionable
            )

        with session() as fresh, session() as served:
            negatives = [int(i) for i in fresh.lewis.negative_indices()]
            assert len(negatives) >= 50
            served.recourse_batch(negatives[10:50], alpha=0.7)
            first = fresh.recourse_batch(negatives[:20], alpha=0.7)
            later = served.recourse_batch(negatives[:20], alpha=0.7)
            assert first["cached"] is later["cached"] is False
            assert "solver" not in first["result"]
            assert later["result"] == first["result"]
            hit = served.recourse_batch(negatives[:20], alpha=0.7)
            assert hit["cached"] is True
            assert hit["result"] == first["result"] == later["result"]
            # the counters still report, per session, outside the answer
            assert (
                served.stats()["solver"]["solved_signatures"]
                > fresh.stats()["solver"]["solved_signatures"]
            )

    def test_audit_counts_are_consistent(self):
        lewis = make_lewis(seed=3)
        audit = lewis.recourse_audit(["skill", "hours"], alpha=0.6)
        assert audit["n"] == len(lewis.negative_indices())
        assert audit["feasible"] + audit["infeasible"] == audit["n"]
        assert len(audit["recourses"]) == audit["n"]
        assert audit["already_satisfied"] <= audit["feasible"]
        for recourse in audit["recourses"]:
            if recourse is not None and recourse.actions:
                assert audit["mean_cost"] > 0.0
                break

    def test_audit_on_explicit_indices(self):
        lewis = make_lewis(seed=4)
        chosen = [int(i) for i in lewis.negative_indices()[:5]]
        audit = lewis.recourse_audit(["skill", "hours"], alpha=0.6, indices=chosen)
        assert audit["indices"] == chosen
        assert audit["n"] == 5


class TestLocalModelCacheBound:
    def test_eviction_beyond_budget(self):
        table = make_population(seed=5, n=120)
        positive = score_model(table)
        estimator = ScoreEstimator(table, positive, max_local_models=2)
        # Three distinct feature tuples: the first must be evicted.
        for attribute in ("skill", "hours", "region"):
            context = local_context(estimator, attribute, table.row_codes(0))
            local_probability(estimator, attribute, 0, context)
        stats = estimator.local_model_cache_stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert stats.misses == 3

    def test_evicted_model_refits_identically(self):
        table = make_population(seed=6, n=150)
        positive = score_model(table)
        bounded = ScoreEstimator(table, positive, max_local_models=1)
        unbounded = ScoreEstimator(table, positive, max_local_models=None)
        row = table.row_codes(3)
        for attribute in ("skill", "hours", "skill", "region", "skill"):
            context_b = local_context(bounded, attribute, row)
            context_u = local_context(unbounded, attribute, row)
            assert local_probability(
                bounded, attribute, 1, context_b
            ) == pytest.approx(
                local_probability(unbounded, attribute, 1, context_u), abs=1e-12
            )
        assert bounded.local_model_cache_stats().evictions >= 2
