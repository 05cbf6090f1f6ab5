"""Compiled node tables predict bit for bit like the node-object walker.

The oracle below is the recursive walker the tree models used before
they were compiled into flat :class:`~repro.models.tree.NodeTable`
arrays.  It walks the nested node dicts of :func:`model_to_dict`, so it
shares no code with the arrays it checks, and it adds ensemble members
one tree at a time in tree order, as the old per-tree loops did.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.serialize import load_model, model_from_dict, model_to_dict
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# the oracle: a recursive walk over nested node dicts


def _leaves(root: dict, X: np.ndarray) -> list[dict]:
    """The leaf dict each row of ``X`` lands in."""
    out: list = [None] * len(X)

    def walk(node: dict, indices: np.ndarray) -> None:
        if node["feature"] < 0:
            for i in indices:
                out[i] = node
            return
        mask = X[indices, node["feature"]] <= node["threshold"]
        walk(node["left"], indices[mask])
        walk(node["right"], indices[~mask])

    walk(root, np.arange(len(X)))
    return out


def _tree_proba(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty((len(X), len(tree["classes"])))
    for i, leaf in enumerate(_leaves(tree["root"], X)):
        counts = np.asarray(leaf["value"], dtype=float)
        out[i] = counts / counts.sum()
    return out


def _tree_value(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.array([leaf["value"] for leaf in _leaves(tree["root"], X)], dtype=np.float64)


def _tree_apply(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.array([leaf["leaf_id"] for leaf in _leaves(tree["root"], X)], dtype=np.int64)


def _newton_step(newton: dict, X: np.ndarray) -> np.ndarray:
    return np.asarray(newton["leaf_values"])[_tree_apply(newton["tree"], X)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


def oracle(data: dict, X: np.ndarray) -> dict[str, np.ndarray]:
    """``predict_proba`` / ``predict`` / ``apply`` of a serialised tree model."""
    kind, model = data["kind"], data["payload"]
    out: dict[str, np.ndarray] = {}
    if kind == "DecisionTreeClassifier":
        out["predict_proba"] = _tree_proba(model, X)
        out["apply"] = _tree_apply(model, X)
    elif kind == "DecisionTreeRegressor":
        out["predict"] = _tree_value(model, X)
        out["apply"] = _tree_apply(model, X)
    elif kind == "RandomForestClassifier":
        proba = np.zeros((len(X), len(model["classes"])))
        for tree in model["trees"]:
            proba += _tree_proba(tree, X)
        out["predict_proba"] = proba / len(model["trees"])
    elif kind == "RandomForestRegressor":
        pred = np.zeros(len(X))
        for tree in model["trees"]:
            pred += _tree_value(tree, X)
        out["predict"] = pred / len(model["trees"])
    elif kind == "GradientBoostingClassifier":
        scores = np.tile(np.asarray(model["base_scores"]), (len(X), 1))
        for p, ensemble in enumerate(model["ensembles"]):
            for newton in ensemble:
                scores[:, p] += model["learning_rate"] * _newton_step(newton, X)
        if scores.shape[1] == 1:
            pos = _sigmoid(scores[:, 0])
            out["predict_proba"] = np.column_stack([1 - pos, pos])
        else:
            probs = _sigmoid(scores)
            totals = probs.sum(axis=1, keepdims=True)
            totals[totals == 0] = 1.0
            out["predict_proba"] = probs / totals
    elif kind == "GradientBoostingRegressor":
        pred = np.full(len(X), model["base_score"])
        for newton in model["trees"]:
            pred += model["learning_rate"] * _newton_step(newton, X)
        out["predict"] = pred
    else:  # pragma: no cover - the families are listed below
        raise AssertionError(kind)
    if "predict_proba" in out:
        classes = np.asarray(model["classes"])
        out["predict"] = classes[np.argmax(out["predict_proba"], axis=1)]
    return out


def assert_matches_oracle(model, expected: dict[str, np.ndarray], X: np.ndarray) -> None:
    for method, want in expected.items():
        got = getattr(model, method)(X)
        assert got.dtype == want.dtype, method
        assert np.array_equal(got, want), method


def json_round_trip(model):
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


# ---------------------------------------------------------------------------
# every family, fresh and after a JSON round trip

FAMILIES = {
    "DecisionTreeClassifier": lambda d, seed: DecisionTreeClassifier(
        max_depth=d.draw(st.sampled_from([None, 1, 3, 5])),
        min_samples_leaf=d.draw(st.integers(1, 3)),
        criterion=d.draw(st.sampled_from(["gini", "entropy"])),
        seed=seed,
    ),
    "DecisionTreeRegressor": lambda d, seed: DecisionTreeRegressor(
        max_depth=d.draw(st.sampled_from([None, 1, 3, 5])),
        min_samples_leaf=d.draw(st.integers(1, 3)),
        seed=seed,
    ),
    "RandomForestClassifier": lambda d, seed: RandomForestClassifier(
        n_estimators=d.draw(st.integers(1, 5)),
        max_depth=d.draw(st.sampled_from([None, 2, 4])),
        seed=seed,
    ),
    "RandomForestRegressor": lambda d, seed: RandomForestRegressor(
        n_estimators=d.draw(st.integers(1, 5)),
        max_depth=d.draw(st.sampled_from([None, 2, 4])),
        seed=seed,
    ),
    "GradientBoostingClassifier": lambda d, seed: GradientBoostingClassifier(
        n_estimators=d.draw(st.integers(1, 5)),
        max_depth=d.draw(st.integers(1, 3)),
        learning_rate=d.draw(st.sampled_from([0.1, 0.3, 1.0])),
        subsample=d.draw(st.sampled_from([1.0, 0.7])),
        seed=seed,
    ),
    "GradientBoostingRegressor": lambda d, seed: GradientBoostingRegressor(
        n_estimators=d.draw(st.integers(1, 5)),
        max_depth=d.draw(st.integers(1, 3)),
        learning_rate=d.draw(st.sampled_from([0.1, 0.3, 1.0])),
        subsample=d.draw(st.sampled_from([1.0, 0.7])),
        seed=seed,
    ),
}


def _problem(seed: int, n_classes: int, n_train: int, n_features: int, n_query: int):
    """Low-cardinality features with ties; queries on and off split points."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n_train, n_features)).astype(float)
    y = rng.integers(0, n_classes, size=n_train)
    y[:n_classes] = np.arange(n_classes)
    Xq = rng.integers(-2, 12, size=(n_query, n_features)) / 2.0
    Xq[rng.random(Xq.shape) < 0.05] = np.nan
    return X, y.astype(np.int64), Xq


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_predictions_match_the_walker(family, data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n_classes = data.draw(st.sampled_from([2, 3]), label="n_classes")
    n_query = data.draw(st.sampled_from([0, 1, 2, 25]), label="n_query")
    X, y, Xq = _problem(
        seed,
        n_classes,
        n_train=data.draw(st.integers(6, 40), label="n_train"),
        n_features=data.draw(st.integers(1, 4), label="n_features"),
        n_query=n_query,
    )
    model = FAMILIES[family](data, seed)
    model.fit(X, y if "Classifier" in family else y.astype(float))
    expected = oracle(model_to_dict(model), Xq)
    assert_matches_oracle(model, expected, Xq)
    loaded = json_round_trip(model)
    assert_matches_oracle(loaded, expected, Xq)
    assert json.dumps(model_to_dict(loaded)) == json.dumps(model_to_dict(model))


# ---------------------------------------------------------------------------
# documents written before trees were compiled


@pytest.mark.parametrize("name", ["forest_3class.json", "boosting_3class.json"])
def test_pinned_json_loads_predicts_and_reserialises(name):
    path = DATA / name
    model = load_model(path)
    Xq = np.random.default_rng(5).integers(-2, 10, size=(40, 3)) / 2.0
    Xq[3, 1] = np.nan
    assert_matches_oracle(model, oracle(json.loads(path.read_text()), Xq), Xq)
    assert json.dumps(model_to_dict(model)) == path.read_text()
