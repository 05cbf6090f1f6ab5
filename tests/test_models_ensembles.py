"""Unit tests for random forests and gradient boosting."""

import numpy as np
import pytest

from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor


class TestRandomForestClassifier:
    def test_accuracy_on_separable_data(self, linear_data):
        X, y, _ = linear_data
        forest = RandomForestClassifier(n_estimators=15, max_depth=6, seed=0).fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_predict_proba_valid(self, linear_data):
        X, y, _ = linear_data
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        proba = forest.predict_proba(X[:30])
        assert proba.min() >= 0 and proba.max() <= 1
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self, linear_data):
        X, y, _ = linear_data
        a = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_seeds_change_predictions_probabilistically(self, linear_data):
        X, y, _ = linear_data
        a = RandomForestClassifier(n_estimators=5, max_depth=3, seed=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, max_depth=3, seed=2).fit(X, y)
        assert not np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_feature_importances_normalised(self, linear_data):
        X, y, _ = linear_data
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)
        assert (forest.feature_importances_ >= 0).all()

    def test_no_bootstrap_mode(self, linear_data):
        X, y, _ = linear_data
        forest = RandomForestClassifier(n_estimators=5, bootstrap=False, seed=0).fit(X, y)
        assert forest.score(X, y) > 0.85

    def test_max_features_fraction(self, linear_data):
        X, y, _ = linear_data
        forest = RandomForestClassifier(
            n_estimators=5, max_features=0.5, seed=0
        ).fit(X, y)
        assert forest.score(X, y) > 0.7

    def test_string_labels_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = np.where(X[:, 0] > 0, "pos", "neg")
        forest = RandomForestClassifier(n_estimators=8, seed=0).fit(X, y)
        assert set(forest.predict(X)) <= {"pos", "neg"}


class TestRandomForestRegressor:
    def test_fits_linear_trend(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = 3 * X[:, 0] - X[:, 1]
        forest = RandomForestRegressor(n_estimators=15, max_depth=8, seed=0).fit(X, y)
        assert forest.score(X, y) > 0.85

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 2))
        y = rng.uniform(0, 1, size=200)
        forest = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        preds = forest.predict(X)
        assert preds.min() >= 0.0 and preds.max() <= 1.0

    def test_averaging_smooths_single_tree(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(300, 1))
        y = np.sin(5 * X[:, 0]) + rng.normal(scale=0.3, size=300)
        lone = RandomForestRegressor(n_estimators=1, seed=0).fit(X, y)
        many = RandomForestRegressor(n_estimators=25, seed=0).fit(X, y)
        grid = np.linspace(0, 1, 50).reshape(-1, 1)
        truth = np.sin(5 * grid[:, 0])
        err_lone = np.mean((lone.predict(grid) - truth) ** 2)
        err_many = np.mean((many.predict(grid) - truth) ** 2)
        assert err_many <= err_lone


class TestGradientBoosting:
    def test_classifier_beats_chance(self, linear_data):
        X, y, _ = linear_data
        gbm = GradientBoostingClassifier(n_estimators=30, max_depth=2, seed=0).fit(X, y)
        assert gbm.score(X, y) > 0.85

    def test_classifier_proba_valid(self, linear_data):
        X, y, _ = linear_data
        gbm = GradientBoostingClassifier(n_estimators=10, seed=0).fit(X, y)
        proba = gbm.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_more_rounds_reduce_training_loss(self, linear_data):
        X, y, _ = linear_data
        few = GradientBoostingClassifier(n_estimators=3, seed=0).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=40, seed=0).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        gbm = GradientBoostingClassifier(n_estimators=25, max_depth=2, seed=0).fit(X, y)
        assert gbm.score(X, y) > 0.8
        assert gbm.predict_proba(X).shape == (300, 3)

    def test_subsample_mode(self, linear_data):
        X, y, _ = linear_data
        gbm = GradientBoostingClassifier(
            n_estimators=15, subsample=0.5, seed=0
        ).fit(X, y)
        assert gbm.score(X, y) > 0.8

    def test_regressor_fits_quadratic(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(400, 1))
        y = X[:, 0] ** 2
        gbm = GradientBoostingRegressor(n_estimators=60, max_depth=3, seed=0).fit(X, y)
        assert gbm.score(X, y) > 0.95

    def test_regressor_base_score_is_mean(self):
        X = np.zeros((10, 1))
        y = np.full(10, 7.0)
        gbm = GradientBoostingRegressor(n_estimators=2, seed=0).fit(X, y)
        assert gbm.base_score_ == pytest.approx(7.0)
        assert np.allclose(gbm.predict(X), 7.0, atol=1e-6)

    def test_learning_rate_zero_predicts_prior(self, linear_data):
        X, y, _ = linear_data
        gbm = GradientBoostingClassifier(
            n_estimators=3, learning_rate=0.0, seed=0
        ).fit(X, y)
        proba = gbm.predict_proba(X)[:, 1]
        assert np.allclose(proba, y.mean(), atol=1e-6)


@pytest.mark.parametrize(
    "family",
    [
        RandomForestClassifier,
        RandomForestRegressor,
        GradientBoostingClassifier,
        GradientBoostingRegressor,
    ],
    ids=lambda f: f.__name__,
)
def test_zero_estimators_is_refused(family, linear_data):
    X, y, _ = linear_data
    with pytest.raises(ValueError, match="n_estimators >= 1"):
        family(n_estimators=0).fit(X, y)
