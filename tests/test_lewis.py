"""Unit tests for the Lewis facade."""

import numpy as np
import pytest

from repro import Lewis
from repro.core.explanations import GlobalExplanation, LocalExplanation
from repro.core.recourse import Recourse


class TestConstruction:
    def test_positive_rate_matches_predictions(self, german_lewis, german_model):
        features = german_lewis.data.select(german_lewis.feature_names)
        # Lewis may have reordered domains; its own wrapper must undo that.
        rate = np.mean(german_lewis.predict_positive(features))
        assert german_lewis.positive_rate == pytest.approx(rate)

    def test_attributes_default_to_features_and_graph(self, german_lewis, german_bundle):
        assert set(german_lewis.attributes) == set(german_bundle.feature_names)

    def test_callable_model_requires_feature_names(self, german_bundle):
        with pytest.raises(ValueError):
            Lewis(lambda t: np.ones(len(t), bool), data=german_bundle.table)

    def test_callable_model_boolean_output(self, german_bundle):
        features = german_bundle.table.select(german_bundle.feature_names)
        lew = Lewis(
            lambda t: t.codes("savings") >= 2,
            data=features,
            feature_names=german_bundle.feature_names,
            infer_orderings=False,
        )
        assert lew.positive_rate == pytest.approx(
            (features.codes("savings") >= 2).mean()
        )

    def test_unordered_domains_get_reordered(self, german_lewis):
        # 'purpose' is generated unordered; after inference it is ordered.
        assert german_lewis.data.column("purpose").ordered

    def test_negative_positive_indices_partition(self, german_lewis):
        neg = set(german_lewis.negative_indices().tolist())
        pos = set(german_lewis.positive_indices().tolist())
        assert neg.isdisjoint(pos)
        assert len(neg) + len(pos) == len(german_lewis.data)


class TestScores:
    def test_score_label_level_access(self, german_lewis):
        triple = german_lewis.score("savings", ">1000 DM", "<100 DM")
        assert 0.0 <= triple.sufficiency <= 1.0

    def test_score_with_context(self, german_lewis):
        triple = german_lewis.score(
            "status", ">200 DM", "<0 DM", context={"sex": "Male"}
        )
        assert 0.0 <= triple.necessity_sufficiency <= 1.0

    def test_score_bounds_contain_estimates_mostly(self, german_lewis):
        triple = german_lewis.score("savings", ">1000 DM", "<100 DM")
        bounds = german_lewis.score_bounds("savings", ">1000 DM", "<100 DM")
        lo, hi = bounds.necessity_sufficiency
        assert lo - 0.15 <= triple.necessity_sufficiency <= hi + 0.15


class TestExplanations:
    def test_global_explanation_type_and_coverage(self, german_lewis):
        exp = german_lewis.explain_global()
        assert isinstance(exp, GlobalExplanation)
        assert len(exp.attribute_scores) == len(german_lewis.attributes)

    def test_contextual_requires_nonempty(self, german_lewis):
        with pytest.raises(ValueError):
            german_lewis.explain_context({})

    def test_contextual_skips_context_attribute(self, german_lewis):
        exp = german_lewis.explain_context({"sex": "Male"})
        assert "sex" not in {s.attribute for s in exp.attribute_scores}

    def test_local_by_index(self, german_lewis):
        idx = int(german_lewis.negative_indices()[0])
        exp = german_lewis.explain_local(index=idx)
        assert isinstance(exp, LocalExplanation)
        assert not exp.outcome_positive

    def test_local_by_individual(self, german_lewis):
        row = german_lewis.data.row(0)
        exp = german_lewis.explain_local(individual=row)
        assert set(c.attribute for c in exp.contributions) == set(
            german_lewis.attributes
        )

    def test_local_requires_exactly_one_input(self, german_lewis):
        with pytest.raises(ValueError):
            german_lewis.explain_local()
        with pytest.raises(ValueError):
            german_lewis.explain_local(index=0, individual={"sex": "Male"})

    def test_local_refuses_partial_or_unknown_individual(self, german_lewis):
        row = german_lewis.data.row(5)
        partial = {name: value for name, value in row.items() if name != "month"}
        # Even when no asked-for attribute reads the missing one: the
        # black box would score the individual with another row's value.
        with pytest.raises(ValueError, match=r"missing \['month'\], unknown \[\]"):
            german_lewis.explain_local(individual=partial, attributes=["sex"])
        with pytest.raises(ValueError, match=r"missing \[\], unknown \['zzz'\]"):
            german_lewis.explain_local(individual={**row, "zzz": 1})
        assert german_lewis.explain_local(individual=row) == (
            german_lewis.explain_local(index=5)
        )

    def test_local_contributions_in_unit_interval(self, german_lewis):
        exp = german_lewis.explain_local(index=int(german_lewis.negative_indices()[0]))
        for c in exp.contributions:
            assert 0.0 <= c.positive <= 1.0
            assert 0.0 <= c.negative <= 1.0


class TestRecourse:
    def test_recourse_for_negative_individual(self, german_lewis, german_bundle):
        idx = int(german_lewis.negative_indices()[0])
        recourse = german_lewis.recourse(
            idx, actionable=german_bundle.actionable, alpha=0.7
        )
        assert isinstance(recourse, Recourse)
        assert recourse.estimated_sufficiency >= 0.7 - 1e-9
        touched = {a.attribute for a in recourse.actions}
        assert touched <= set(german_bundle.actionable)

    def test_recourse_solver_cached(self, german_lewis, german_bundle):
        idx = int(german_lewis.negative_indices()[0])
        german_lewis.recourse(idx, actionable=german_bundle.actionable, alpha=0.6)
        assert len(german_lewis._recourse_solvers) >= 1
        before = dict(german_lewis._recourse_solvers)
        german_lewis.recourse(idx, actionable=german_bundle.actionable, alpha=0.7)
        assert dict(german_lewis._recourse_solvers) == before

    def test_recourse_actions_raise_model_probability(
        self, german_lewis, german_model, german_bundle
    ):
        """Applying the actions (others fixed) must raise P(positive).

        This is a *conservative* check: the causal sufficiency claim also
        lets descendants of the actionable attributes respond, which can
        only help. Exact SCM-level validation lives in
        test_integration.py::TestRecourseGroundTruth.
        """
        improved = 0
        tried = 0
        features = german_lewis.data.select(german_lewis.feature_names)
        for idx in german_lewis.negative_indices()[:20]:
            try:
                recourse = german_lewis.recourse(
                    int(idx), actionable=german_bundle.actionable, alpha=0.7
                )
            except Exception:
                continue
            if recourse.is_empty:
                continue
            tried += 1
            row = german_lewis.data.row(int(idx))
            before = row.copy()
            row.update(recourse.as_dict())

            def prob_of(decoded):
                single = features.take(np.array([0]))
                for name in features.names:
                    col = single.column(name)
                    code = german_lewis.data.column(name).code_of(decoded[name])
                    single = single.with_column(
                        col.replaced(np.array([code], dtype=np.int64))
                    )
                remapped = german_lewis._to_model_space(single)
                return german_model.predict_proba(remapped)[0, 1]

            improved += int(prob_of(row) > prob_of(before))
        assert tried >= 3
        assert improved / tried >= 0.8


class TestRegressionBlackBox:
    def test_threshold_positive(self, german_bundle):
        from repro import fit_table_model, load_dataset, train_test_split

        bundle = load_dataset("german_syn", n_rows=2_000, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest_regressor",
            train,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=10,
        )
        lew = Lewis(model, data=test, graph=bundle.graph, threshold=0.5)
        values = model.predict_value(test.select(bundle.feature_names))
        assert lew.positive_rate == pytest.approx((values >= 0.5).mean())
