"""Second-order gradient boosting — the XGBoost stand-in.

Each round fits a CART regression tree to the negative gradient of the
loss, then replaces leaf values with the Newton step
``-sum(g) / (sum(h) + lambda)`` over that leaf (the core of XGBoost's
algorithm). Logistic loss for classification, squared loss for
regression.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor
from repro.models.tree import (
    DecisionTreeRegressor,
    NodeTable,
    concat_tables,
    descend,
    sum_in_tree_order,
)
from repro.utils.rng import as_generator, spawn_generators


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class _NewtonTree:
    """A regression tree whose leaf values are Newton steps."""

    def __init__(self, tree: DecisionTreeRegressor, leaf_values: np.ndarray):
        self.tree = tree
        self.leaf_values = leaf_values

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_values[self.tree.apply(X)]


def _compile(trees: list[_NewtonTree], learning_rate: float) -> tuple[NodeTable, np.ndarray]:
    """Concatenate boosted trees; return the table and each node's scaled step.

    A node's step is ``learning_rate`` times its leaf's Newton value (0
    at internal nodes), the exact product the per-round update adds.
    """
    nodes = concat_tables([t.tree.nodes_ for t in trees])
    values = np.concatenate([t.leaf_values[t.tree.nodes_.leaf_id] for t in trees])
    steps = np.where(nodes.leaf_id >= 0, learning_rate * values, 0.0)
    return nodes, steps


def _fit_newton_tree(
    X: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    reg_lambda: float,
    subsample_rows: np.ndarray,
    rng: np.random.Generator,
) -> _NewtonTree:
    tree = DecisionTreeRegressor(
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        seed=rng,
    )
    tree.fit(X[subsample_rows], -gradients[subsample_rows])
    # Newton leaf refit uses the *full* gradient statistics so the step is
    # valid even under row subsampling.
    leaves = tree.apply(X)
    values = np.zeros(tree.n_leaves_)
    for leaf in range(tree.n_leaves_):
        members = leaves == leaf
        if members.any():
            g = gradients[members].sum()
            h = hessians[members].sum()
            values[leaf] = -g / (h + reg_lambda)
    return _NewtonTree(tree, values)


class GradientBoostingClassifier(BaseClassifier):
    """Binary / one-vs-rest boosted trees with logistic loss."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.seed = seed
        self.ensembles_: list[list[_NewtonTree]] | None = None
        self.base_scores_: np.ndarray | None = None
        self.nodes_: NodeTable | None = None

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        n = len(X)
        # One-vs-rest: binary problems share the tree machinery; for the
        # common binary case only one ensemble is trained.
        n_problems = 1 if n_classes == 2 else n_classes
        rngs = spawn_generators(self.seed, self.n_estimators * n_problems)
        sampler = as_generator(self.seed)
        self.ensembles_ = []
        self.base_scores_ = np.zeros(n_problems)
        for problem in range(n_problems):
            target = (y_idx == (problem if n_problems > 1 else 1)).astype(float)
            prior = np.clip(target.mean(), 1e-6, 1 - 1e-6)
            base = float(np.log(prior / (1 - prior)))
            self.base_scores_[problem] = base
            raw = np.full(n, base)
            ensemble: list[_NewtonTree] = []
            for round_ in range(self.n_estimators):
                prob = _sigmoid(raw)
                gradients = prob - target
                hessians = prob * (1 - prob)
                if self.subsample < 1.0:
                    rows = sampler.choice(
                        n, size=max(1, int(self.subsample * n)), replace=False
                    )
                else:
                    rows = np.arange(n)
                tree = _fit_newton_tree(
                    X,
                    gradients,
                    hessians,
                    self.max_depth,
                    self.min_samples_leaf,
                    self.reg_lambda,
                    rows,
                    rngs[problem * self.n_estimators + round_],
                )
                raw += self.learning_rate * tree.predict(X)
                ensemble.append(tree)
            self.ensembles_.append(ensemble)
        self.compile()

    def compile(self) -> None:
        """Concatenate every problem's trees into :attr:`nodes_` for fused prediction."""
        trees = [tree for ensemble in self.ensembles_ for tree in ensemble]
        self.nodes_, self._node_steps = _compile(trees, self.learning_rate)

    def _raw_scores(self, X: np.ndarray) -> np.ndarray:
        n_problems, n_rounds = len(self.ensembles_), len(self.ensembles_[0])
        steps = self._node_steps[descend(self.nodes_, X)]
        # (problem, round, row) -> (round, problem, row): sum each problem's rounds.
        steps = steps.reshape(n_problems, n_rounds, len(X)).transpose(1, 0, 2)
        # Row-major like the per-round loop's scores: the multi-class
        # row sums in _predict_proba round by memory layout.
        return np.ascontiguousarray(
            sum_in_tree_order(self.base_scores_[:, None], steps).T
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raw = self._raw_scores(X)
        if raw.shape[1] == 1:
            pos = _sigmoid(raw[:, 0])
            return np.column_stack([1 - pos, pos])
        probs = _sigmoid(raw)
        totals = probs.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return probs / totals


class GradientBoostingRegressor(BaseRegressor):
    """Boosted trees with squared loss (hessian = 1)."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.seed = seed
        self.trees_: list[_NewtonTree] | None = None
        self.base_score_: float = 0.0
        self.nodes_: NodeTable | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n = len(X)
        rngs = spawn_generators(self.seed, self.n_estimators)
        sampler = as_generator(self.seed)
        self.base_score_ = float(y.mean())
        raw = np.full(n, self.base_score_)
        hessians = np.ones(n)
        self.trees_ = []
        for round_ in range(self.n_estimators):
            gradients = raw - y
            if self.subsample < 1.0:
                rows = sampler.choice(
                    n, size=max(1, int(self.subsample * n)), replace=False
                )
            else:
                rows = np.arange(n)
            tree = _fit_newton_tree(
                X,
                gradients,
                hessians,
                self.max_depth,
                self.min_samples_leaf,
                self.reg_lambda,
                rows,
                rngs[round_],
            )
            raw += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
        self.compile()

    def compile(self) -> None:
        """Concatenate the boosted trees into :attr:`nodes_` for fused prediction."""
        self.nodes_, self._node_steps = _compile(self.trees_, self.learning_rate)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        steps = self._node_steps[descend(self.nodes_, X)]
        return sum_in_tree_order(np.float64(self.base_score_), steps)
