"""Unit tests for linear models and the MLP."""

import numpy as np
import pytest

from repro.models.linear import LinearRegression, LogisticRegression
from repro.models.neural import NeuralNetworkClassifier


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 4.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(4.0)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = X @ np.array([3.0, 3.0]) + rng.normal(size=100) * 0.1
        plain = LinearRegression(l2=0.0).fit(X, y)
        ridge = LinearRegression(l2=100.0).fit(X, y)
        assert np.abs(ridge.coef_).sum() < np.abs(plain.coef_).sum()

    def test_intercept_not_penalised(self):
        X = np.zeros((50, 1))
        y = np.full(50, 9.0)
        model = LinearRegression(l2=1000.0).fit(X, y)
        assert model.intercept_ == pytest.approx(9.0)

    def test_r2_perfect_fit(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = 2 * X[:, 0] + 1
        assert LinearRegression().fit(X, y).score(X, y) == pytest.approx(1.0)


class TestLogisticRegression:
    def test_separates_linear_data(self, linear_data):
        X, y, _ = linear_data
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_decision_function_sign_matches_prediction(self, linear_data):
        X, y, _ = linear_data
        model = LogisticRegression().fit(X, y)
        scores = model.decision_function(X)
        preds = model.predict(X)
        assert np.array_equal(preds == model.classes_[1], scores > 0)

    def test_proba_monotone_in_score(self, linear_data):
        X, y, _ = linear_data
        model = LogisticRegression().fit(X, y)
        scores = model.decision_function(X)
        proba = model.predict_proba(X)[:, 1]
        order = np.argsort(scores)
        assert (np.diff(proba[order]) >= -1e-12).all()

    def test_coefficient_direction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 1))
        y = (X[:, 0] > 0).astype(int)
        model = LogisticRegression().fit(X, y)
        assert model.coef_[0][0] > 0

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 2))
        y = np.digitize(X[:, 0], [-0.6, 0.6])
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.85
        assert model.predict_proba(X).shape == (400, 3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 1)), np.zeros(5))


class TestNeuralNetwork:
    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(600, 2)).astype(float)
        y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
        net = NeuralNetworkClassifier(
            hidden_sizes=(16,), epochs=80, learning_rate=5e-3, seed=0
        ).fit(X, y)
        assert net.score(X, y) > 0.95

    def test_proba_normalised(self, linear_data):
        X, y, _ = linear_data
        net = NeuralNetworkClassifier(hidden_sizes=(8,), epochs=10, seed=0).fit(X, y)
        proba = net.predict_proba(X[:20])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self, linear_data):
        X, y, _ = linear_data
        a = NeuralNetworkClassifier(hidden_sizes=(8,), epochs=5, seed=4).fit(X, y)
        b = NeuralNetworkClassifier(hidden_sizes=(8,), epochs=5, seed=4).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(100), np.linspace(-1, 1, 100)])
        y = (X[:, 1] > 0).astype(int)
        net = NeuralNetworkClassifier(
            hidden_sizes=(8,), epochs=150, learning_rate=1e-2, seed=0
        ).fit(X, y)
        assert net.score(X, y) > 0.9
