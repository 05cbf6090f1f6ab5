"""Answers do not depend on the row order of the explained table.

Every LEWIS quantity is a function of the table's cell counts, which a
row permutation leaves unchanged.  The global explanation reads them
from the engine's count tensors; the local and recourse regressions are
fitted from the engine's count cells, so they too must be the same bits
for a table and any permutation of it.  Row-order-dependent floating
point (a fit summing its rows in table order) would show here as
answers that differ in the last bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lewis, fit_table_model, load_dataset, train_test_split


@pytest.fixture(scope="module")
def explainers():
    bundle = load_dataset("german", n_rows=1_000, seed=0)
    train, test = train_test_split(bundle.table, test_fraction=0.5, seed=0)
    model = fit_table_model(
        "random_forest",
        train,
        bundle.feature_names,
        bundle.label,
        seed=0,
        n_estimators=5,
    )
    perm = np.random.default_rng(1).permutation(len(test))

    def build(table):
        return Lewis(
            model, data=table, graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )

    # Row i of ``test`` is row ``position[i]`` of the permuted table.
    position = np.argsort(perm)
    return build(test), build(test.take(perm)), position, bundle


def test_global_explanation(explainers):
    original, permuted, _position, _bundle = explainers
    assert repr(permuted.explain_global()) == repr(original.explain_global())


def test_local_batch(explainers):
    original, permuted, position, _bundle = explainers
    rows = [0, 17, 101, 250, 499]
    want = original.explain_local_batch(rows)
    got = permuted.explain_local_batch([int(position[i]) for i in rows])
    assert [repr(e) for e in got] == [repr(e) for e in want]


def test_recourse_batch(explainers):
    original, permuted, position, bundle = explainers
    rows = [int(i) for i in original.negative_indices()[:60]]
    want = original.recourse_batch(
        rows, bundle.actionable, alpha=0.7, on_infeasible="none"
    )
    got = permuted.recourse_batch(
        [int(position[i]) for i in rows], bundle.actionable, alpha=0.7,
        on_infeasible="none",
    )
    assert sum(r is not None for r in want) > 0
    assert [repr(r) for r in got] == [repr(r) for r in want]
