"""Cross-module integration tests: full pipelines on every dataset."""

import numpy as np
import pytest

from repro import (
    GroundTruthScores,
    Lewis,
    fit_table_model,
    load_dataset,
    train_test_split,
)
from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.compas import compas_software_positive


class TestEndToEndPipelines:
    @pytest.mark.parametrize("name", ["german", "compas", "drug"])
    def test_full_pipeline_classification(self, name):
        bundle = load_dataset(name, n_rows=600, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest",
            train,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=10,
            max_depth=6,
        )
        lew = Lewis(
            model, data=test, graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )
        exp = lew.explain_global()
        assert len(exp.attribute_scores) == len(lew.attributes)
        assert all(
            0 <= s.necessity_sufficiency <= 1 for s in exp.attribute_scores
        )

    def test_adult_pipeline_subsampled(self):
        bundle = load_dataset("adult", n_rows=2_000, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "xgboost", train, bundle.feature_names, bundle.label, seed=0,
            n_estimators=20,
        )
        lew = Lewis(
            model, data=test, graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )
        ranking = lew.explain_global().ranking("necessity_sufficiency")
        # Strong causes of income must beat weak ones.
        assert ranking.index("marital") < ranking.index("country")

    def test_compas_software_pipeline(self):
        bundle = load_dataset("compas", n_rows=2_000, seed=0)
        features = bundle.table.select(bundle.feature_names)
        lew = Lewis(
            compas_software_positive,
            data=features,
            feature_names=bundle.feature_names,
            graph=bundle.graph,
        )
        exp = lew.explain_global()
        # Criminal history dominates demographics (Figure 3c shape).
        ranking = exp.ranking("necessity_sufficiency")
        assert ranking.index("priors_count") < ranking.index("sex")
        # The software is racially biased by construction.
        assert exp.score_of("race").sufficiency > 0.1

    def test_compas_contextual_bias_shape(self):
        """Figure 4c: worsening priors hurts Black defendants more."""
        bundle = load_dataset("compas", n_rows=4_000, seed=0)
        features = bundle.table.select(bundle.feature_names)
        lew = Lewis(
            compas_software_positive,
            data=features,
            feature_names=bundle.feature_names,
            graph=bundle.graph,
        )
        black = lew.explain_context({"race": "Black"}, attributes=["priors_count"])
        white = lew.explain_context({"race": "White"}, attributes=["priors_count"])
        assert (
            black.score_of("priors_count").necessity
            >= white.score_of("priors_count").necessity
        )


class TestMulticlass:
    def test_drug_positive_rate_with_single_favourable_class(self):
        bundle = load_dataset("drug", n_rows=800, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest", train, bundle.feature_names, bundle.label,
            seed=0, n_estimators=10,
        )
        lew = Lewis(
            model, data=test, graph=bundle.graph, positive_outcome="never"
        )
        preds = model.predict_labels(test)
        assert lew.positive_rate == pytest.approx(
            np.mean([p == "never" for p in preds])
        )

    def test_drug_local_and_global_consistent(self):
        bundle = load_dataset("drug", n_rows=800, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest", train, bundle.feature_names, bundle.label,
            seed=0, n_estimators=10,
        )
        lew = Lewis(model, data=test, graph=bundle.graph, positive_outcome="never")
        exp = lew.explain_local(index=0)
        assert len(exp.contributions) == len(lew.attributes)


class TestGroundTruthValidation:
    """Figure 11a in miniature: estimates track SCM truth on German-syn."""

    @pytest.fixture(scope="class")
    def syn_setup(self):
        bundle = load_dataset("german_syn", n_rows=8_000, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest_regressor",
            train,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=15,
        )
        lew = Lewis(model, data=test, graph=bundle.graph, threshold=0.5)
        truth = GroundTruthScores(
            bundle.scm,
            predict=lambda t: model.predict_value(t.select(bundle.feature_names)),
            positive=lambda s: s >= 0.5,
            n_samples=25_000,
            seed=3,
        )
        return bundle, lew, truth

    def test_nesuf_close_to_truth_for_direct_causes(self, syn_setup):
        bundle, lew, truth = syn_setup
        for attribute in ("saving", "status", "housing"):
            hi = len(lew.data.domain(attribute)) - 1
            est = lew.estimator.necessity_sufficiency({attribute: hi}, {attribute: 0})
            exact = truth.necessity_sufficiency(attribute, hi, 0)
            assert est == pytest.approx(exact, abs=0.12)

    def test_indirect_influence_detected(self, syn_setup):
        """age affects the score only through saving/status; LEWIS must
        still assign it a clearly non-zero score (Remark 3.2)."""
        bundle, lew, truth = syn_setup
        hi = len(lew.data.domain("age")) - 1
        est = lew.estimator.necessity_sufficiency({"age": hi}, {"age": 0})
        exact = truth.necessity_sufficiency("age", hi, 0)
        assert exact > 0.2
        assert est == pytest.approx(exact, abs=0.15)

    def test_sample_size_reduces_error(self):
        bundle = load_dataset("german_syn", n_rows=40_000, seed=0)
        model = fit_table_model(
            "random_forest_regressor",
            bundle.table,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=10,
        )
        truth = GroundTruthScores(
            bundle.scm,
            predict=lambda t: model.predict_value(t.select(bundle.feature_names)),
            positive=lambda s: s >= 0.5,
            n_samples=30_000,
            seed=5,
        )
        exact = truth.necessity_sufficiency("status", 2, 0)
        errors = {}
        for n in (800, 20_000):
            sample = load_dataset("german_syn", n_rows=n, seed=9)
            lew = Lewis(model, data=sample.table, graph=sample.graph, threshold=0.5)
            est = lew.estimator.necessity_sufficiency({"status": 2}, {"status": 0})
            errors[n] = abs(est - exact)
        assert errors[20_000] <= errors[800] + 0.02


class TestRecourseGroundTruth:
    """Section 5.5 recourse analysis: SCM-validated sufficiency."""

    def test_recourse_sufficient_under_true_interventions(self):
        bundle = load_dataset("wide", n_variables=8, n_rows=6_000, seed=0)
        scm = bundle.scm
        table = bundle.table.select(bundle.feature_names)
        positive = bundle.table.codes("outcome").astype(bool)
        estimator = ScoreEstimator(table, positive, diagram=bundle.graph)
        solver = RecourseSolver(estimator, bundle.feature_names[:4])

        negatives = np.nonzero(~positive)[0][:30]
        answers = solver.solve_batch(
            table.take(negatives), alpha=0.5, on_infeasible="none"
        )
        validated, total = 0, 0
        for idx, recourse in zip(negatives, answers):
            if recourse is None or recourse.is_empty:
                continue
            total += 1
            interventions = {
                a.attribute: table.column(a.attribute).categories.index(a.new_value)
                for a in recourse.actions
            }
            # True sufficiency: resample the SCM under the intervention
            # and measure the positive rate among comparable units.
            cf = scm.sample(4_000, seed=int(idx), interventions=interventions)
            rate = cf.codes("outcome").mean()
            validated += int(rate >= 0.5)
        assert total >= 5
        assert validated / total >= 0.8

    def test_constraint_growth_linear(self):
        """Section 5.5 scalability: constraints = |actionable| + 1."""
        bundle = load_dataset("wide", n_variables=30, n_rows=3_000, seed=0)
        table = bundle.table.select(bundle.feature_names)
        positive = bundle.table.codes("outcome").astype(bool)
        estimator = ScoreEstimator(table, positive)
        row = table.take(np.nonzero(~positive)[0][:1])
        for k in (5, 10, 20):
            solver = RecourseSolver(estimator, bundle.feature_names[:k])
            recourse = solver.solve_batch(row, alpha=0.6)[0]
            assert recourse.n_constraints == k + 1
