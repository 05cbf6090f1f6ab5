"""Random forests: bagged CART trees with feature subsampling."""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor
from repro.models.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NodeTable,
    concat_tables,
    descend,
    sum_in_tree_order,
)
from repro.utils.rng import as_generator, spawn_generators


def _resolve_max_features(spec, n_features: int) -> int | None:
    """Translate 'sqrt'/'log2'/int/float/None into a feature count."""
    if spec is None:
        return None
    if spec == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if spec == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(spec, float):
        return max(1, int(spec * n_features))
    return int(spec)


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated decision trees with probability averaging."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        criterion: str = "gini",
        bootstrap: bool = True,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] | None = None
        self.nodes_: NodeTable | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        n, d = X.shape
        max_features = _resolve_max_features(self.max_features, d)
        rngs = spawn_generators(self.seed, self.n_estimators)
        sampler = as_generator(self.seed)
        self.trees_ = []
        importances = np.zeros(d)
        for rng in rngs:
            if self.bootstrap:
                rows = sampler.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                criterion=self.criterion,
                seed=rng,
            )
            # Fit at the index level so all trees share the class layout.
            tree.classes_ = np.arange(n_classes)
            tree._fit(X[rows], y_idx[rows], n_classes)
            importances += tree.feature_importances_
            self.trees_.append(tree)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.compile()

    def compile(self) -> None:
        """Concatenate the fitted trees into :attr:`nodes_` for fused prediction."""
        self.nodes_ = concat_tables([tree.nodes_ for tree in self.trees_])
        counts = self.nodes_.value
        self._node_proba = counts / counts.sum(axis=1, keepdims=True)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        terms = self._node_proba[descend(self.nodes_, X)]
        return sum_in_tree_order(0.0, terms) / len(self.trees_)


class RandomForestRegressor(BaseRegressor):
    """Bootstrap-aggregated regression trees with mean averaging."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool = True,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] | None = None
        self.nodes_: NodeTable | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        max_features = _resolve_max_features(self.max_features, d)
        rngs = spawn_generators(self.seed, self.n_estimators)
        sampler = as_generator(self.seed)
        self.trees_ = []
        importances = np.zeros(d)
        for rng in rngs:
            rows = sampler.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=rng,
            )
            tree.fit(X[rows], y[rows])
            importances += tree.feature_importances_
            self.trees_.append(tree)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.compile()

    def compile(self) -> None:
        """Concatenate the fitted trees into :attr:`nodes_` for fused prediction."""
        self.nodes_ = concat_tables([tree.nodes_ for tree in self.trees_])

    def _predict(self, X: np.ndarray) -> np.ndarray:
        terms = self.nodes_.value[descend(self.nodes_, X)]
        return sum_in_tree_order(0.0, terms) / len(self.trees_)
