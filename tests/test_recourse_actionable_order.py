"""A recourse answer does not depend on how the actionable set is spelled.

``RecourseSolver`` keeps the actionable attributes in the data's column
order, the order the logit's features and a recourse's actions follow,
and ``Lewis`` caches one solver per actionable set.  Regression: the
solver kept the caller's order, so two spellings of one set disagreed in
action order and in the last bits of the numbers, and whichever
spelling a session was asked first answered for every later one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lewis, train_test_split
from repro.core.recourse import RecourseSolver
from repro.service import ExplainerSession, RecourseBatchRequest

ALPHA = 0.7


@pytest.fixture()
def fresh_lewis(german_bundle, german_model):
    """A new explainer over the German test split on each call."""
    _train, test = train_test_split(german_bundle.table, seed=0)

    def build():
        return Lewis(
            german_model,
            data=test,
            graph=german_bundle.graph,
            positive_outcome=german_bundle.positive_label,
        )

    return build


@pytest.fixture()
def spellings(german_bundle, german_lewis):
    """The set in column order, then as the bundle, reversed and shuffled."""
    given = list(german_bundle.actionable)
    in_columns = [n for n in german_lewis.data.names if n in given]
    shuffled = [given[i] for i in np.random.default_rng(0).permutation(len(given))]
    out = [in_columns, given, given[::-1], shuffled]
    assert len({tuple(spelling) for spelling in out}) == 4
    return out


def test_solver_keeps_the_column_order(german_lewis, spellings):
    for spelling in spellings:
        solver = RecourseSolver(german_lewis.estimator, spelling)
        assert solver.actionable == spellings[0]
        assert solver._logit.features[: len(spelling)] == spellings[0]


def test_a_name_listed_twice_is_refused(german_lewis, spellings):
    with pytest.raises(ValueError):
        german_lewis.recourse(0, spellings[0] + spellings[0][:1], alpha=ALPHA)


@pytest.mark.parametrize("mode", ["exact", "anytime"])
def test_spellings_answer_alike_on_fresh_explainers(fresh_lewis, spellings, mode):
    audits = [
        fresh_lewis().recourse_audit(spelling, alpha=ALPHA, mode=mode)
        for spelling in spellings
    ]
    assert audits[0]["feasible"] > 10
    for recourse in filter(None, audits[0]["recourses"]):
        moved = [action.attribute for action in recourse.actions]
        assert moved == [n for n in spellings[0] if n in moved]
    # dataclass equality compares every float with ==: bit identity
    for audit in audits[1:]:
        assert audit == audits[0]


def test_session_bytes_do_not_depend_on_the_spelling_asked_first(
    fresh_lewis, spellings
):
    indices = tuple(int(i) for i in fresh_lewis().negative_indices()[:100])

    def answers(*orders) -> list[bytes]:
        """``result`` bytes of each spelling in turn, on one fresh session."""
        with ExplainerSession(fresh_lewis()) as session:
            return [
                session.handle(
                    RecourseBatchRequest(
                        indices=indices, actionable=tuple(order), alpha=ALPHA
                    ),
                    encoded=True,
                )["result"]
                for order in orders
            ]

    in_columns = spellings[0]
    (expected,) = answers(in_columns)
    for spelling in spellings[1:]:
        assert answers(spelling) == [expected]
        assert answers(spelling, in_columns) == [expected, expected]
        assert answers(in_columns, spelling) == [expected, expected]
