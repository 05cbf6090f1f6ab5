"""Tests for remaining branches: SHAP extra columns, identification
caching, statement rendering edge cases, pipeline guard rails."""

import numpy as np

from repro.causal.identification import BackdoorAdjustment
from repro.core.explanations import (
    AttributeScore,
    GlobalExplanation,
    LocalContribution,
    LocalExplanation,
)
from repro.data.table import Column, Table
from repro.estimation.engine import ContingencyEngine
from repro.xai.shap import KernelShapExplainer


class TestShapExtraColumns:
    def test_unexplained_columns_passed_through(self):
        """Background columns outside `attributes` still reach the model."""
        rng = np.random.default_rng(0)
        n = 1_000
        a = rng.integers(0, 2, n)
        extra = rng.integers(0, 2, n)
        table = Table(
            [
                Column.from_codes("a", a, (0, 1)),
                Column.from_codes("extra", extra, (0, 1)),
            ]
        )

        seen_columns = set()

        def predict(t):
            seen_columns.update(t.names)
            return (t.codes("a") + t.codes("extra")) >= 1

        shap = KernelShapExplainer(
            predict, table, attributes=["a"], n_background=20, seed=0
        )
        exp = shap.explain({"a": 1})
        assert "extra" in seen_columns
        assert list(exp.values) == ["a"]

    def test_base_value_cached(self):
        rng = np.random.default_rng(1)
        table = Table([Column.from_codes("a", rng.integers(0, 2, 500), (0, 1))])
        calls = []

        def predict(t):
            calls.append(len(t))
            return t.codes("a") == 1

        shap = KernelShapExplainer(predict, table, n_background=10, seed=0)
        first = shap.base_value()
        n_calls = len(calls)
        second = shap.base_value()
        assert first == second
        assert len(calls) == n_calls


class TestIdentificationCaching:
    def test_adjustment_set_cached_per_context(self, toy_scm):
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        a = adj.adjustment_set(["X"])
        b = adj.adjustment_set(["X"], context=["Z"])
        # Different cache keys: context changes the admissible set.
        assert a == ["Z"]
        assert b == [] or b is None or "Z" not in (b or [])

    def test_interventional_with_multi_treatment(self, toy_scm, toy_table):
        engine = ContingencyEngine(toy_table)
        adj = BackdoorAdjustment(toy_scm.diagram, outcome="Y")
        treatment = {"X": 2, "Z": 1}
        adjustment = adj.adjustment_set(list(treatment)) or []
        value = engine.adjusted_probabilities({"Y": 1}, [treatment], adjustment)[0]
        assert 0.0 <= value <= 1.0


class TestStatementEdgeCases:
    def test_global_statements_skip_missing_pairs(self):
        exp = GlobalExplanation(
            context={},
            attribute_scores=[
                AttributeScore("a", 0.5, 0.5, 0.5, best_pair_sufficiency=None)
            ],
        )
        assert exp.statements() == []

    def test_local_statements_skip_zero_contributions(self):
        exp = LocalExplanation(
            individual={},
            outcome_positive=False,
            contributions=[
                LocalContribution("a", "v", positive=0.0, negative=0.0)
            ],
        )
        assert exp.statements() == []

    def test_local_statements_respect_top(self):
        contributions = [
            LocalContribution(f"a{i}", "v", 0.0, 0.5 + i / 100, negative_foil="w")
            for i in range(5)
        ]
        exp = LocalExplanation({}, False, contributions)
        assert len(exp.statements(top=2)) == 2
        # Highest negative contribution first.
        assert "a4" in exp.statements(top=1)[0]


class TestContingencyEngineLimits:
    def test_tensor_cache_is_lru_bounded(self):
        rng = np.random.default_rng(2)
        table = Table(
            [
                Column.from_codes(f"x{i}", rng.integers(0, 3, 500), (0, 1, 2))
                for i in range(12)
            ]
        )
        engine = ContingencyEngine(table, cache_size=4)
        # Hammer the cache with more column sets than its limit.
        for i in range(12):
            engine.count({f"x{i}": 1})
        stats = engine.cache_stats()
        assert stats.entries == 4
        assert stats.evictions == 8
        # Least-recently-used tensors were evicted, recent ones kept.
        assert ("x11",) in engine._tensors
        assert ("x0",) not in engine._tensors

    def test_n_rows_property(self, small_table):
        assert ContingencyEngine(small_table).n_rows == 8
