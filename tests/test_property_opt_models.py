"""Property-based tests for ML substrate invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.forest import RandomForestClassifier
from repro.models.linear import LogisticRegression
from repro.models.tree import DecisionTreeClassifier

classification_data = st.tuples(
    st.integers(min_value=30, max_value=120),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)


@given(classification_data)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_proba_is_distribution(params):
    n, d, seed = params
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
    if len(np.unique(y)) < 2:
        return
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    proba = tree.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert (proba >= 0).all()


@given(classification_data)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_forest_prediction_in_training_label_set(params):
    n, d, seed = params
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 3, size=n)
    if len(np.unique(y)) < 2:
        return
    forest = RandomForestClassifier(n_estimators=4, max_depth=3, seed=0).fit(X, y)
    assert set(forest.predict(X)) <= set(np.unique(y))


@given(classification_data)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_logistic_proba_bounds(params):
    n, d, seed = params
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(int)
    if len(np.unique(y)) < 2:
        return
    model = LogisticRegression().fit(X, y)
    proba = model.predict_proba(X)
    assert (proba > 0).all() and (proba < 1).all()
    assert np.allclose(proba.sum(axis=1), 1.0)
