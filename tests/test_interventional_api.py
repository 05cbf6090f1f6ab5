"""Tests for the facade-level do-operator query (Example 2.1)."""

import numpy as np
import pytest

from repro import Lewis
from repro.data.table import Column, Table


@pytest.fixture(scope="module")
def confounded_lewis(toy_scm):
    """Lewis over the toy Z -> X -> Y SCM with f = 1{X + Z >= 2}."""
    table = toy_scm.sample(30_000, seed=61).select(["Z", "X"])
    return (
        Lewis(
            lambda t: (t.codes("X") + t.codes("Z")) >= 2,
            data=table,
            feature_names=["Z", "X"],
            graph=toy_scm.diagram.subgraph(["Z", "X"]),
            infer_orderings=False,
        ),
        toy_scm,
    )


class TestInterventionalProbability:
    def test_matches_scm_truth(self, confounded_lewis):
        lewis, scm = confounded_lewis
        for x_code in (0, 1, 2):
            intervened = scm.sample(30_000, seed=77, interventions={"X": x_code})
            truth = float(
                ((intervened.codes("X") + intervened.codes("Z")) >= 2).mean()
            )
            estimate = lewis.interventional_probability({"X": x_code})
            assert estimate == pytest.approx(truth, abs=0.03)

    def test_differs_from_conditional_under_confounding(self, confounded_lewis):
        """At X = 1 the outcome depends on the confounder Z, so
        P(o | X=1) = P(Z=1 | X=1) is inflated above
        P(o | do(X=1)) = P(Z=1)."""
        lewis, _scm = confounded_lewis
        do_x = lewis.interventional_probability({"X": 1})
        conditional = lewis.estimator.positive_rate({"X": 1})
        assert conditional > do_x + 0.02

    def test_negative_outcome_complements(self, confounded_lewis):
        lewis, _scm = confounded_lewis
        pos = lewis.interventional_probability({"X": 1})
        neg = lewis.interventional_probability({"X": 1}, positive=False)
        assert pos + neg == pytest.approx(1.0, abs=1e-9)

    def test_with_context(self, confounded_lewis):
        lewis, _scm = confounded_lewis
        # Given Z = 1, do(X = 1) gives X + Z = 2 >= 2 deterministically.
        value = lewis.interventional_probability({"X": 1}, context={"Z": 1})
        assert value == pytest.approx(1.0, abs=0.01)

    def test_without_graph_is_conditional(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 5_000)
        table = Table([Column.from_codes("x", x, (0, 1))])
        lewis = Lewis(
            lambda t: t.codes("x") == 1,
            data=table,
            feature_names=["x"],
            graph=None,
            infer_orderings=False,
        )
        assert lewis.interventional_probability({"x": 1}) == pytest.approx(1.0)
