"""A recourse cohort is one table in the estimator's domains.

``RecourseSolver.solve_batch`` reads a cohort's signatures off one code
matrix of its actionable and context columns: a missing column is
refused, as is a column over another domain, other columns and the
cohort's column order are ignored, and a row answers alike alone or in
any cohort.  A code outside its column's domain cannot reach the solver,
because the cohort table refuses it when it is built.  Regression: the
sequence-of-mappings cohort answered a row holding code -1 (as ``None``)
and failed on a code one past the domain with a numpy ``IndexError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import cohort

from repro.core.recourse import RecourseSolver
from repro.data.table import Column
from repro.utils.exceptions import DomainError

ALPHA = 0.7


@pytest.fixture()
def actionable(german_bundle) -> list[str]:
    return list(german_bundle.actionable)


@pytest.fixture()
def negatives(german_lewis):
    """The first 80 rows with the negative decision."""
    return german_lewis.data.take(german_lewis.negative_indices()[:80])


def fresh_answers(lewis, actionable, rows):
    """Answers of a new solver, so none comes from an earlier call's memo."""
    return RecourseSolver(lewis.estimator, actionable).solve_batch(
        rows, alpha=ALPHA, on_infeasible="none"
    )


def test_a_missing_column_is_refused(german_lewis, actionable, negatives):
    solver = RecourseSolver(german_lewis.estimator, actionable)
    for name in (solver.actionable[0], solver.context_names[0]):
        for rows in (negatives, negatives.take(np.arange(0))):
            with pytest.raises(KeyError, match=f"no column '{name}'"):
                solver.solve_batch(rows.drop([name]), alpha=ALPHA)


def test_column_order_and_extra_columns_change_nothing(
    german_lewis, actionable, negatives
):
    expected = fresh_answers(german_lewis, actionable, negatives)
    assert sum(r is not None and not r.is_empty for r in expected) > 10
    extra = negatives.with_column(
        Column.from_codes("note", np.zeros(len(negatives), dtype=np.int64), ("x",))
    )
    for variant in (negatives.select(negatives.names[::-1]), extra):
        assert fresh_answers(german_lewis, actionable, variant) == expected


def test_an_empty_cohort_answers_nothing(german_lewis, actionable, negatives):
    solver = RecourseSolver(german_lewis.estimator, actionable)
    assert solver.solve_batch(negatives.take(np.arange(0)), alpha=ALPHA) == []
    assert german_lewis.recourse_batch([], actionable, alpha=ALPHA) == []
    audit = german_lewis.recourse_audit(actionable, alpha=ALPHA, indices=[])
    assert audit["n"] == audit["feasible"] == audit["infeasible"] == 0
    assert audit["recourses"] == [] and audit["mean_cost"] == 0.0


def test_one_row_answers_as_in_the_whole_cohort(german_lewis, actionable, negatives):
    whole = fresh_answers(german_lewis, actionable, negatives)
    single = RecourseSolver(german_lewis.estimator, actionable)
    for i, answer in enumerate(whole):
        alone = single.solve_batch(
            negatives.take([i]), alpha=ALPHA, on_infeasible="none"
        )
        assert alone == [answer]


def test_a_column_over_another_domain_is_refused(german_lewis, actionable, negatives):
    """A column over a wider or reordered domain is refused, not read.

    Its codes would index options the estimator's programs lack (a numpy
    ``IndexError``) or name other categories than the estimator's.
    """
    solver = RecourseSolver(german_lewis.estimator, actionable)
    for name in (solver.actionable[0], solver.context_names[0]):
        col = negatives.column(name)
        for categories in (col.categories + ("other",), col.categories[::-1]):
            wider = negatives.with_column(Column(name, col.codes, categories))
            with pytest.raises(DomainError, match=repr(name)):
                solver.solve_batch(wider, alpha=ALPHA)


@pytest.mark.parametrize("side", ["below", "past"])
def test_an_out_of_domain_code_is_refused_when_the_cohort_is_built(
    german_lewis, actionable, side
):
    data = german_lewis.data
    row = data.row_codes(int(german_lewis.negative_indices()[0]))
    for name in actionable:
        code = -1 if side == "below" else data.column(name).cardinality
        with pytest.raises(DomainError, match=repr(name)):
            cohort(data, [row, {**row, name: code}])
