"""Unit tests for CART trees."""

import json

import numpy as np
import pytest

from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.serialize import model_from_dict, model_to_dict
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.utils.exceptions import NotFittedError


class TestDecisionTreeClassifier:
    def test_fits_simple_threshold_rule(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_predict_proba_rows_sum_to_one(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X[:20])
        assert proba.shape == (20, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_classes_preserved_with_string_labels(self):
        X = np.array([[0.0], [5.0], [0.1], [4.9]])
        y = np.array(["no", "yes", "no", "yes"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) == {"no", "yes"}

    def test_max_depth_limits_overfitting(self, linear_data):
        X, y, _ = linear_data
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert deep.score(X, y) >= stump.score(X, y)
        # A depth-1 tree has exactly one split (2 leaves).
        nodes = stump.nodes_
        assert nodes.depth == 1
        assert nodes.feature[0] >= 0
        assert nodes.feature[nodes.left[0]] == -1
        assert nodes.feature[nodes.right[0]] == -1

    def test_min_samples_leaf_enforced(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        nodes = tree.nodes_
        leaf_sizes = nodes.n_samples[nodes.feature < 0]
        assert leaf_sizes.size >= 1
        assert (leaf_sizes >= 3).all()

    def test_pure_node_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y)  # single class rejected

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_feature_importances_sum_to_one(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_irrelevant_feature_gets_low_importance(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(size=400), rng.normal(size=400)])
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.feature_importances_[0] > 0.9

    def test_entropy_criterion(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=4, criterion="entropy").fit(X, y)
        assert tree.score(X, y) > 0.8

    def test_unknown_criterion(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="bogus").fit(X, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 1)), np.array([0, 1]))

    def test_multiclass(self):
        X = np.array([[0.0], [1.0], [2.0], [0.1], [1.1], [2.1]])
        y = np.array([0, 1, 2, 0, 1, 2])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0
        assert tree.predict_proba(X).shape == (6, 3)

    def test_apply_returns_leaf_ids(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        leaves = tree.apply(X)
        assert leaves.min() >= 0
        # Rows in the same leaf get identical probability vectors.
        proba = tree.predict_proba(X)
        for leaf in np.unique(leaves):
            block = proba[leaves == leaf]
            assert np.allclose(block, block[0])

    def test_apply_accepts_a_single_row(self, linear_data):
        X, y, _ = linear_data
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.array_equal(tree.apply(X[0]), tree.apply(X[:1]))

    def test_unfitted_apply_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().apply(np.zeros((1, 2)))


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = (X[:, 0] >= 10).astype(float) * 5.0
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_constant_target_single_leaf(self):
        X = np.arange(5, dtype=float).reshape(-1, 1)
        y = np.full(5, 3.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves_ == 1
        assert np.allclose(tree.predict(X), 3.0)

    def test_depth_improves_fit(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(300, 1))
        y = np.sin(6 * X[:, 0])
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert deep.score(X, y) > shallow.score(X, y)

    def test_apply_consistent_with_predictions(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = X[:, 0] * 2 + rng.normal(size=100) * 0.1
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        leaves = tree.apply(X)
        preds = tree.predict(X)
        for leaf in np.unique(leaves):
            block = preds[leaves == leaf]
            assert np.allclose(block, block[0])

    def test_n_leaves_counts_apply_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = X @ np.array([1.0, -1.0, 0.5])
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert tree.apply(X).max() < tree.n_leaves_

    def test_apply_accepts_a_single_row(self):
        X = np.arange(20, dtype=float).reshape(-1, 2)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 0])
        assert np.array_equal(tree.apply(X[3]), tree.apply(X[3:4]))

    def test_unfitted_apply_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().apply(np.zeros((1, 2)))

    def test_score_r2_bounds(self):
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = X[:, 0] * 2.0
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert 0.9 < tree.score(X, y) <= 1.0


class TestFeatureWidth:
    @pytest.mark.parametrize(
        "model",
        [
            DecisionTreeClassifier(),
            DecisionTreeRegressor(),
            RandomForestClassifier(n_estimators=3),
            RandomForestRegressor(n_estimators=3),
            GradientBoostingClassifier(n_estimators=3),
            GradientBoostingRegressor(n_estimators=3),
        ],
        ids=lambda model: type(model).__name__,
    )
    def test_wrong_width_is_refused_naming_both_widths(self, model):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(40, 2)).astype(float)
        model.fit(X, (X[:, 0] > X[:, 1]).astype(np.int64))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        for fitted in (model, loaded):
            for width in (1, 5):
                with pytest.raises(ValueError, match=f"X has {width} features.* fit on 2"):
                    fitted.predict(np.zeros((2, width)))
                if hasattr(fitted, "apply"):
                    with pytest.raises(ValueError, match=f"X has {width} features"):
                        fitted.apply(np.zeros((2, width)))
            assert fitted.predict(np.zeros((2, 2))).shape == (2,)
