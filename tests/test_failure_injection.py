"""Failure-injection and degenerate-input tests.

Production code meets broken inputs: empty sub-populations, constant
outcomes, single-valued attributes, all-positive populations, domains the
model never saw. Each scenario must fail loudly with the library's own
exception types — or degrade to a defined value — never crash with a
bare numpy error.
"""

import numpy as np
import pytest

from repro.causal.graph import CausalDiagram
from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Column, Table
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import EstimationError, RecourseInfeasibleError

from oracles import cohort, local_scores


def _two_column_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column.from_codes("x", rng.integers(0, 3, n), (0, 1, 2)),
            Column.from_codes("z", rng.integers(0, 2, n), (0, 1)),
        ]
    )


class TestDegenerateOutcomes:
    def test_all_positive_population(self):
        table = _two_column_table()
        est = ScoreEstimator(table, np.ones(len(table), dtype=bool))
        # SUF denominator P(o'|x') = 0 -> defined fallback of 0.
        assert est.sufficiency({"x": 2}, {"x": 0}) == 0.0
        assert est.necessity_sufficiency({"x": 2}, {"x": 0}) == 0.0

    def test_all_negative_population(self):
        table = _two_column_table()
        est = ScoreEstimator(table, np.zeros(len(table), dtype=bool))
        assert est.necessity({"x": 2}, {"x": 0}) == 0.0

    def test_local_scores_with_constant_outcome(self):
        table = _two_column_table()
        est = ScoreEstimator(table, np.ones(len(table), dtype=bool))
        triple = local_scores(est, "x", 2, 0, {"z": 1})
        assert triple.sufficiency == 0.0
        assert triple.necessity_sufficiency == 0.0


class TestEmptySupport:
    def test_unseen_value_combination(self):
        """Conditioning on a combination absent from the data."""
        codes_x = np.array([0] * 50 + [1] * 50)
        codes_z = np.array([0] * 50 + [0] * 50)  # z never equals 1
        table = Table(
            [
                Column.from_codes("x", codes_x, (0, 1)),
                Column.from_codes("z", codes_z, (0, 1)),
            ]
        )
        engine = ContingencyEngine(table)
        with pytest.raises(EstimationError):
            engine.probability({"x": 1}, {"z": 1})
        assert engine.probabilities([{"x": 1}], [{"z": 1}], default=0.5)[0] == 0.5

    def test_context_without_rows_gives_zero_scores(self):
        table = _two_column_table()
        positive = table.codes("x") >= 1
        est = ScoreEstimator(table, positive)
        # Unsupported context degrades to 0, not a crash.
        table2 = table.with_column(
            Column.from_codes("w", np.zeros(len(table), dtype=np.int64), (0, 1))
        )
        est2 = ScoreEstimator(table2, positive)
        assert est2.sufficiency({"x": 2}, {"x": 0}, {"w": 1}) == 0.0


class TestSingleValuedAttributes:
    def test_cardinality_one_attribute_gets_zero_scores(self):
        n = 100
        table = Table(
            [
                Column.from_codes("x", np.random.default_rng(0).integers(0, 2, n), (0, 1)),
                Column.from_codes("const", np.zeros(n, dtype=np.int64), ("only",)),
            ]
        )
        positive = table.codes("x") == 1
        est = ScoreEstimator(table, positive)
        from repro.core.explanations import build_global_explanation

        exp = build_global_explanation(est, ["x", "const"])
        assert exp.score_of("const").necessity_sufficiency == 0.0

    def test_recourse_with_constant_actionable_infeasible(self):
        n = 400
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, n)
        table = Table(
            [
                Column.from_codes("x", x, (0, 1)),
                Column.from_codes("const", np.zeros(n, dtype=np.int64), ("only",)),
            ]
        )
        positive = x == 1
        est = ScoreEstimator(table, positive)
        solver = RecourseSolver(est, ["const"])
        with pytest.raises(RecourseInfeasibleError):
            solver.solve_batch(cohort(table, [{"x": 0, "const": 0}]), alpha=0.9)


class TestGraphEdgeCases:
    def test_estimator_with_disconnected_diagram(self):
        table = _two_column_table()
        positive = table.codes("x") >= 1
        diagram = CausalDiagram([], nodes=["x", "z"])
        est = ScoreEstimator(table, positive, diagram=diagram)
        triple = est.scores({"x": 2}, {"x": 0})
        assert 0.0 <= triple.sufficiency <= 1.0

    def test_estimator_with_partial_diagram(self):
        """Diagram covering only some attributes falls back gracefully."""
        table = _two_column_table()
        positive = table.codes("x") >= 1
        diagram = CausalDiagram([], nodes=["x"])  # z unknown to the graph
        est = ScoreEstimator(table, positive, diagram=diagram)
        # Treatment on the unknown attribute uses no adjustment.
        triple = est.scores({"z": 1}, {"z": 0})
        assert 0.0 <= triple.necessity_sufficiency <= 1.0

    def test_lewis_attribute_not_in_graph_still_scored(self):
        from repro import Lewis

        table = _two_column_table(seed=3)
        diagram = CausalDiagram([], nodes=["x"])
        lew = Lewis(
            lambda t: t.codes("x") >= 1,
            data=table,
            feature_names=["x", "z"],
            graph=diagram,
            infer_orderings=False,
        )
        exp = lew.explain_global(attributes=["x", "z"])
        assert {s.attribute for s in exp.attribute_scores} == {"x", "z"}


class TestModelInputValidation:
    def test_tree_rejects_three_dimensional_input(self):
        from repro.models.tree import DecisionTreeClassifier

        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((2, 2, 2)), np.array([0, 1]))

    def test_forest_single_class_rejected(self):
        from repro.models.forest import RandomForestClassifier

        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=2).fit(
                np.zeros((5, 2)), np.zeros(5)
            )

    def test_onehot_rejects_unknown_schema(self, small_table):
        from repro.data.encoding import OneHotEncoder

        enc = OneHotEncoder().fit(small_table, ["color"])
        with pytest.raises(KeyError):
            enc.transform(small_table.drop(["color"]))
