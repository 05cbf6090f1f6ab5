"""JSON (de)serialisation for the ML substrate and TableModel.

A trained black box should outlive the process that fit it, and pickle
is unsafe for untrusted files — so every model in
:mod:`repro.models` converts to and from a plain JSON document:

>>> save_model(model, "model.json")
>>> model = load_model("model.json")

Numpy arrays are stored as nested lists (the models here are small:
dozens of trees, a few weight matrices), trees as nested node dicts
(flattened into :class:`~repro.models.tree.NodeTable` arrays on load).
The document carries a ``kind`` tag resolved through an explicit
registry, so loading never executes arbitrary classes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.models.boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    _NewtonTree,
)
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.linear import LinearRegression, LogisticRegression
from repro.models.neural import NeuralNetworkClassifier
from repro.models.pipeline import TableModel
from repro.models.tree import (
    NODE_FIELDS,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NodeTable,
    append_node,
    node_table,
)
from repro.data.encoding import OneHotEncoder


# ---------------------------------------------------------------------------
# node-level helpers


def _node_to_dict(nodes: NodeTable, index: int = 0) -> dict:
    """The nested dict of the subtree rooted at ``index``."""
    value = nodes.value[index]
    out: dict[str, Any] = {
        "feature": int(nodes.feature[index]),
        "threshold": float(nodes.threshold[index]),
        "n_samples": int(nodes.n_samples[index]),
        "impurity": float(nodes.impurity[index]),
        "leaf_id": int(nodes.leaf_id[index]),
        "value": value.tolist(),
        "value_kind": "array" if value.ndim else "scalar",
    }
    if nodes.left[index] != index:
        out["left"] = _node_to_dict(nodes, int(nodes.left[index]))
        out["right"] = _node_to_dict(nodes, int(nodes.right[index]))
    return out


def _nodes_from_dict(root: dict, n_features: int) -> NodeTable:
    """Flatten a nested node dict into a preorder :class:`NodeTable`."""
    columns: dict[str, list] = {name: [] for name in NODE_FIELDS}

    def visit(data: dict) -> int:
        index = append_node(
            columns,
            data["feature"],
            data["threshold"],
            data["value"],
            data["n_samples"],
            data["impurity"],
            data["leaf_id"],
        )
        if "left" in data:
            columns["left"][index] = visit(data["left"])
            columns["right"][index] = visit(data["right"])
        return index

    visit(root)
    return node_table(columns, n_features)


def _array(value) -> list | None:
    return None if value is None else np.asarray(value).tolist()


# ---------------------------------------------------------------------------
# per-class encoders / decoders


def _tree_clf_to_dict(model: DecisionTreeClassifier) -> dict:
    return {
        "classes": model.classes_.tolist(),
        "root": _node_to_dict(model.nodes_),
        "feature_importances": _array(model.feature_importances_),
    }


def _tree_clf_from_dict(data: dict) -> DecisionTreeClassifier:
    model = DecisionTreeClassifier()
    model.classes_ = np.asarray(data["classes"])
    model.feature_importances_ = np.asarray(data["feature_importances"])
    model.nodes_ = _nodes_from_dict(data["root"], len(model.feature_importances_))
    return model


def _tree_reg_to_dict(model: DecisionTreeRegressor) -> dict:
    return {
        "root": _node_to_dict(model.nodes_),
        "n_leaves": model.n_leaves_,
        "feature_importances": _array(model.feature_importances_),
    }


def _tree_reg_from_dict(data: dict) -> DecisionTreeRegressor:
    model = DecisionTreeRegressor()
    model.n_leaves_ = data["n_leaves"]
    model.feature_importances_ = np.asarray(data["feature_importances"])
    model.nodes_ = _nodes_from_dict(data["root"], len(model.feature_importances_))
    model.is_fitted_ = True
    return model


def _forest_clf_to_dict(model: RandomForestClassifier) -> dict:
    return {
        "classes": model.classes_.tolist(),
        "trees": [_tree_clf_to_dict(t) for t in model.trees_],
        "feature_importances": _array(model.feature_importances_),
    }


def _forest_clf_from_dict(data: dict) -> RandomForestClassifier:
    model = RandomForestClassifier()
    model.classes_ = np.asarray(data["classes"])
    model.trees_ = [_tree_clf_from_dict(t) for t in data["trees"]]
    model.feature_importances_ = np.asarray(data["feature_importances"])
    model.compile()
    return model


def _forest_reg_to_dict(model: RandomForestRegressor) -> dict:
    return {
        "trees": [_tree_reg_to_dict(t) for t in model.trees_],
        "feature_importances": _array(model.feature_importances_),
    }


def _forest_reg_from_dict(data: dict) -> RandomForestRegressor:
    model = RandomForestRegressor()
    model.trees_ = [_tree_reg_from_dict(t) for t in data["trees"]]
    model.feature_importances_ = np.asarray(data["feature_importances"])
    model.compile()
    model.is_fitted_ = True
    return model


def _newton_tree_to_dict(tree: _NewtonTree) -> dict:
    return {
        "tree": _tree_reg_to_dict(tree.tree),
        "leaf_values": tree.leaf_values.tolist(),
    }


def _newton_tree_from_dict(data: dict) -> _NewtonTree:
    return _NewtonTree(
        _tree_reg_from_dict(data["tree"]), np.asarray(data["leaf_values"])
    )


def _gbm_clf_to_dict(model: GradientBoostingClassifier) -> dict:
    return {
        "classes": model.classes_.tolist(),
        "learning_rate": model.learning_rate,
        "base_scores": model.base_scores_.tolist(),
        "ensembles": [
            [_newton_tree_to_dict(t) for t in ensemble]
            for ensemble in model.ensembles_
        ],
    }


def _gbm_clf_from_dict(data: dict) -> GradientBoostingClassifier:
    model = GradientBoostingClassifier(learning_rate=data["learning_rate"])
    model.classes_ = np.asarray(data["classes"])
    model.base_scores_ = np.asarray(data["base_scores"])
    model.ensembles_ = [
        [_newton_tree_from_dict(t) for t in ensemble]
        for ensemble in data["ensembles"]
    ]
    model.compile()
    return model


def _gbm_reg_to_dict(model: GradientBoostingRegressor) -> dict:
    return {
        "learning_rate": model.learning_rate,
        "base_score": model.base_score_,
        "trees": [_newton_tree_to_dict(t) for t in model.trees_],
    }


def _gbm_reg_from_dict(data: dict) -> GradientBoostingRegressor:
    model = GradientBoostingRegressor(learning_rate=data["learning_rate"])
    model.base_score_ = data["base_score"]
    model.trees_ = [_newton_tree_from_dict(t) for t in data["trees"]]
    model.compile()
    model.is_fitted_ = True
    return model


def _logistic_to_dict(model: LogisticRegression) -> dict:
    return {
        "classes": model.classes_.tolist(),
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_.tolist(),
    }


def _logistic_from_dict(data: dict) -> LogisticRegression:
    model = LogisticRegression()
    model.classes_ = np.asarray(data["classes"])
    model.coef_ = np.asarray(data["coef"])
    model.intercept_ = np.asarray(data["intercept"])
    return model


def _linear_to_dict(model: LinearRegression) -> dict:
    return {"coef": model.coef_.tolist(), "intercept": model.intercept_}


def _linear_from_dict(data: dict) -> LinearRegression:
    model = LinearRegression()
    model.coef_ = np.asarray(data["coef"])
    model.intercept_ = data["intercept"]
    model.is_fitted_ = True
    return model


def _neural_to_dict(model: NeuralNetworkClassifier) -> dict:
    return {
        "classes": model.classes_.tolist(),
        "weights": [w.tolist() for w in model.weights_],
        "biases": [b.tolist() for b in model.biases_],
        "mean": model._mean.tolist(),
        "std": model._std.tolist(),
    }


def _neural_from_dict(data: dict) -> NeuralNetworkClassifier:
    model = NeuralNetworkClassifier()
    model.classes_ = np.asarray(data["classes"])
    model.weights_ = [np.asarray(w) for w in data["weights"]]
    model.biases_ = [np.asarray(b) for b in data["biases"]]
    model._mean = np.asarray(data["mean"])
    model._std = np.asarray(data["std"])
    return model


_REGISTRY = {
    "DecisionTreeClassifier": (DecisionTreeClassifier, _tree_clf_to_dict, _tree_clf_from_dict),
    "DecisionTreeRegressor": (DecisionTreeRegressor, _tree_reg_to_dict, _tree_reg_from_dict),
    "RandomForestClassifier": (RandomForestClassifier, _forest_clf_to_dict, _forest_clf_from_dict),
    "RandomForestRegressor": (RandomForestRegressor, _forest_reg_to_dict, _forest_reg_from_dict),
    "GradientBoostingClassifier": (GradientBoostingClassifier, _gbm_clf_to_dict, _gbm_clf_from_dict),
    "GradientBoostingRegressor": (GradientBoostingRegressor, _gbm_reg_to_dict, _gbm_reg_from_dict),
    "LogisticRegression": (LogisticRegression, _logistic_to_dict, _logistic_from_dict),
    "LinearRegression": (LinearRegression, _linear_to_dict, _linear_from_dict),
    "NeuralNetworkClassifier": (NeuralNetworkClassifier, _neural_to_dict, _neural_from_dict),
}


# ---------------------------------------------------------------------------
# public API


def model_to_dict(model) -> dict:
    """Convert any substrate model (or TableModel) to a JSON-able dict."""
    if isinstance(model, TableModel):
        inner = model_to_dict(model.model)
        encoder = None
        if model._encoder is not None:
            encoder = {
                "columns": model._encoder.columns_,
                "domains": {
                    k: list(v) for k, v in model._encoder.domains_.items()
                },
                "drop_first": model._encoder.drop_first,
            }
        return {
            "kind": "TableModel",
            "inner": inner,
            "feature_names": model.feature_names,
            "encoding": model.encoding,
            "outcome_domain": list(model.outcome_domain_ or []),
            "encoder": encoder,
        }
    name = type(model).__name__
    if name not in _REGISTRY:
        raise TypeError(f"cannot serialise model of type {name}")
    _cls, encode, _decode = _REGISTRY[name]
    return {"kind": name, "payload": encode(model)}


def model_from_dict(data: dict):
    """Rebuild a model saved by :func:`model_to_dict`."""
    kind = data.get("kind")
    if kind == "TableModel":
        inner = model_from_dict(data["inner"])
        model = TableModel(inner, data["feature_names"], data["encoding"])
        model.outcome_domain_ = tuple(data["outcome_domain"]) or None
        if data.get("encoder"):
            spec = data["encoder"]
            encoder = OneHotEncoder(drop_first=spec["drop_first"])
            encoder.columns_ = list(spec["columns"])
            encoder.domains_ = {k: tuple(v) for k, v in spec["domains"].items()}
            encoder.feature_names_ = []
            encoder._slices = {}
            start = 0
            for name in encoder.columns_:
                cats = encoder.domains_[name][1 if encoder.drop_first else 0:]
                encoder.feature_names_.extend(f"{name}={c}" for c in cats)
                encoder._slices[name] = slice(start, start + len(cats))
                start += len(cats)
            model._encoder = encoder
        return model
    if kind not in _REGISTRY:
        raise TypeError(f"unknown serialised model kind {kind!r}")
    _cls, _encode, decode = _REGISTRY[kind]
    return decode(data["payload"])


def save_model(model, path: str | Path) -> None:
    """Serialise ``model`` as JSON at ``path``."""
    Path(path).write_text(json.dumps(model_to_dict(model)))


def load_model(path: str | Path):
    """Load a model saved by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
