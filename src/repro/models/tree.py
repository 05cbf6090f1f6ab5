"""CART decision trees (classification and regression).

Split search is histogram-style: candidate thresholds are midpoints
between consecutive distinct feature values at the node, and impurity is
evaluated from prefix sums in one vectorised pass per feature.  This is
fast for the low-cardinality ordinal/one-hot matrices the library feeds
models with, while remaining correct for arbitrary float features.

A fitted tree lives in memory only as a :class:`NodeTable`: flat
per-node arrays in preorder.  :func:`descend` walks one or many trees
over a whole matrix at once, moving every (tree, row) pair down one
level per numpy step, so forests and boosted ensembles predict with no
Python loop over rows or trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor, _as_matrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_fitted


@dataclass(frozen=True)
class NodeTable:
    """One or more fitted trees as flat per-node arrays, each tree in preorder.

    Leaves have ``feature = -1`` and a ``leaf_id`` numbering them left to
    right within their tree; internal nodes have ``leaf_id = -1``.  A
    leaf is its own left and right child, so a descent that reaches it
    early stays there whatever the comparison says.
    """

    feature: np.ndarray  # int64 split feature
    threshold: np.ndarray  # float64; rows with x <= threshold go left
    left: np.ndarray  # int64 child node
    right: np.ndarray  # int64 child node
    value: np.ndarray  # class counts (n_nodes, n_classes) or mean target (n_nodes,)
    n_samples: np.ndarray  # int64
    impurity: np.ndarray  # float64
    leaf_id: np.ndarray  # int64
    roots: np.ndarray  # int64 root node of each tree
    depth: int  # longest root-to-leaf path: the number of descent steps
    n_features: int  # width of the matrix the trees were fit on


#: per-node columns of a :class:`NodeTable`, in record order
NODE_FIELDS = (
    "feature", "threshold", "left", "right", "value", "n_samples", "impurity", "leaf_id",
)


def append_node(
    columns: dict[str, list], feature, threshold, value, n_samples, impurity, leaf_id
) -> int:
    """Append one node to preorder ``columns`` as a leaf; return its index.

    The node is its own child until the caller links its subtrees.
    """
    index = len(columns["feature"])
    record = (feature, threshold, index, index, value, n_samples, impurity, leaf_id)
    for name, field in zip(NODE_FIELDS, record):
        columns[name].append(field)
    return index


def node_table(columns: dict[str, list], n_features: int) -> NodeTable:
    """Freeze one tree's preorder ``columns`` (root first) into a :class:`NodeTable`."""
    left = np.array(columns["left"], dtype=np.int64)
    right = np.array(columns["right"], dtype=np.int64)
    depth, frontier = 0, np.zeros(1, dtype=np.int64)
    while True:
        frontier = frontier[left[frontier] != frontier]  # drop the leaves
        if frontier.size == 0:
            break
        frontier = np.concatenate([left[frontier], right[frontier]])
        depth += 1
    return NodeTable(
        feature=np.array(columns["feature"], dtype=np.int64),
        threshold=np.array(columns["threshold"], dtype=np.float64),
        left=left,
        right=right,
        value=np.array(columns["value"], dtype=np.float64),
        n_samples=np.array(columns["n_samples"], dtype=np.int64),
        impurity=np.array(columns["impurity"], dtype=np.float64),
        leaf_id=np.array(columns["leaf_id"], dtype=np.int64),
        roots=np.zeros(1, dtype=np.int64),
        depth=depth,
        n_features=n_features,
    )


def concat_tables(tables: list[NodeTable]) -> NodeTable:
    """One table holding every tree of ``tables``, in order, for a fused descent."""
    if not tables:
        raise ValueError("an ensemble needs at least one tree (n_estimators >= 1)")
    sizes = [len(t.feature) for t in tables]
    offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)

    def stack(field: str, shift: bool = False) -> np.ndarray:
        parts = [getattr(t, field) for t in tables]
        if shift:
            parts = [part + offset for part, offset in zip(parts, offsets)]
        return np.concatenate(parts)

    return NodeTable(
        feature=stack("feature"),
        threshold=stack("threshold"),
        left=stack("left", shift=True),
        right=stack("right", shift=True),
        value=stack("value"),
        n_samples=stack("n_samples"),
        impurity=stack("impurity"),
        leaf_id=stack("leaf_id"),
        roots=stack("roots", shift=True),
        depth=max(t.depth for t in tables),
        n_features=tables[0].n_features,
    )


def descend(nodes: NodeTable, X: np.ndarray) -> np.ndarray:
    """Leaf node reached by every (tree, row) pair, shape ``(n_trees, n_rows)``.

    All pairs step down one level together, ``nodes.depth`` times.  A
    comparison with NaN is false, so NaN features go right.
    """
    if X.shape[1] != nodes.n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, but the model was fit on "
            f"{nodes.n_features} features"
        )
    rows = np.arange(len(X))
    node = np.repeat(nodes.roots[:, None], len(X), axis=1)
    for _ in range(nodes.depth):
        go_left = X[rows, nodes.feature[node]] <= nodes.threshold[node]
        node = np.where(go_left, nodes.left[node], nodes.right[node])
    return node


def sum_in_tree_order(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...``, added strictly left to right.

    Ensembles add one tree's output at a time; ``np.sum`` over the tree
    axis may pair terms up and round differently, an accumulate never
    does, so fused predictions stay bit-identical to a per-tree loop.
    """
    first = np.broadcast_to(start, terms.shape[1:])[None]
    return np.add.accumulate(np.concatenate([first, terms]), axis=0)[-1]


def _class_impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Gini or entropy from a ``(..., n_classes)`` count array."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - np.sum(probs**2, axis=-1)
    if criterion == "entropy":
        logs = np.log2(probs, where=probs > 0, out=np.zeros_like(probs))
        return -np.sum(probs * logs, axis=-1)
    raise ValueError(f"unknown criterion {criterion!r}")


class _TreeBuilder:
    """Shared recursive CART builder; subclass hooks define the task."""

    def __init__(
        self,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
    ):
        self.max_depth = max_depth if max_depth is not None else np.inf
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.rng = rng
        self.n_leaves = 0
        self.feature_gains: np.ndarray | None = None

    # -- task hooks (classifier vs regressor) --------------------------------

    def node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def node_value(self, y: np.ndarray):
        raise NotImplementedError

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        """Return (gain, threshold) for one feature or None."""
        raise NotImplementedError

    # -- generic recursion ------------------------------------------------------

    def build(self, X: np.ndarray, y: np.ndarray) -> NodeTable:
        self.feature_gains = np.zeros(X.shape[1])
        self.columns: dict[str, list] = {name: [] for name in NODE_FIELDS}
        self._grow(X, y, depth=0)
        return node_table(self.columns, X.shape[1])

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree for ``(X, y)`` in preorder; return its root."""
        impurity = self.node_impurity(y)
        index = append_node(
            self.columns, -1, 0.0, self.node_value(y), len(y), impurity, -1
        )
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or impurity <= 1e-12
        ):
            return self._leaf(index)

        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            features = self.rng.choice(n_features, self.max_features, replace=False)
        else:
            features = np.arange(n_features)

        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for f in features:
            found = self.best_split_for_feature(X[:, f], y)
            if found is None:
                continue
            gain, threshold = found
            if gain > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = gain, int(f), threshold

        if best_feature < 0:
            return self._leaf(index)

        mask = X[:, best_feature] <= best_threshold
        self.columns["feature"][index] = best_feature
        self.columns["threshold"][index] = best_threshold
        self.feature_gains[best_feature] += best_gain * len(y)
        self.columns["left"][index] = self._grow(X[mask], y[mask], depth + 1)
        self.columns["right"][index] = self._grow(X[~mask], y[~mask], depth + 1)
        return index

    def _leaf(self, index: int) -> int:
        self.columns["leaf_id"][index] = self.n_leaves
        self.n_leaves += 1
        return index


class _ClassifierBuilder(_TreeBuilder):
    def __init__(self, n_classes: int, criterion: str, **kwargs):
        super().__init__(**kwargs)
        self.n_classes = n_classes
        self.criterion = criterion

    def node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self.n_classes).astype(float)
        return float(_class_impurity(counts, self.criterion))

    def node_value(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes).astype(float)

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        # Candidate cut positions: between distinct consecutive values.
        boundary = np.nonzero(xs[1:] != xs[:-1])[0]
        if boundary.size == 0:
            return None
        onehot = np.zeros((len(ys), self.n_classes))
        onehot[np.arange(len(ys)), ys] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[boundary]
        total = prefix[-1]
        right = total - left
        n_left = boundary + 1
        n_right = len(ys) - n_left
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        parent = _class_impurity(total, self.criterion)
        child = (
            n_left * _class_impurity(left, self.criterion)
            + n_right * _class_impurity(right, self.criterion)
        ) / len(ys)
        gains = np.where(valid, parent - child, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0:
            return None
        threshold = float((xs[boundary[best]] + xs[boundary[best] + 1]) / 2.0)
        return float(gains[best]), threshold


class _RegressorBuilder(_TreeBuilder):
    def node_impurity(self, y: np.ndarray) -> float:
        return float(np.var(y)) if len(y) else 0.0

    def node_value(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if len(y) else 0.0

    def best_split_for_feature(self, x: np.ndarray, y: np.ndarray):
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        boundary = np.nonzero(xs[1:] != xs[:-1])[0]
        if boundary.size == 0:
            return None
        prefix = np.cumsum(ys)
        prefix_sq = np.cumsum(ys**2)
        n = len(ys)
        n_left = boundary + 1
        n_right = n - n_left
        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        sum_left = prefix[boundary]
        sum_right = prefix[-1] - sum_left
        sq_left = prefix_sq[boundary]
        sq_right = prefix_sq[-1] - sq_left
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        parent = np.var(ys)
        child = (n_left * var_left + n_right * var_right) / n
        gains = np.where(valid, parent - child, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 1e-15:
            return None
        threshold = float((xs[boundary[best]] + xs[boundary[best] + 1]) / 2.0)
        return float(gains[best]), threshold


class _TreeModel:
    """What both CART models share: a fitted :class:`NodeTable`."""

    nodes_: NodeTable | None

    def apply(self, X) -> np.ndarray:
        """Return the leaf id each row lands in."""
        check_fitted(self, "nodes_")
        return self.nodes_.leaf_id[descend(self.nodes_, _as_matrix(X))[0]]


class DecisionTreeClassifier(_TreeModel, BaseClassifier):
    """CART classifier with gini/entropy impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        criterion: str = "gini",
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.seed = seed
        self.nodes_: NodeTable | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        builder = _ClassifierBuilder(
            n_classes=n_classes,
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.seed),
        )
        self.nodes_ = builder.build(X, y_idx)
        gains = builder.feature_gains
        total = gains.sum()
        self.feature_importances_ = gains / total if total > 0 else gains

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        counts = self.nodes_.value[descend(self.nodes_, X)[0]]
        return counts / counts.sum(axis=1, keepdims=True)


class DecisionTreeRegressor(_TreeModel, BaseRegressor):
    """CART regressor with variance reduction splitting."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.nodes_: NodeTable | None = None
        self.n_leaves_: int = 0
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        builder = _RegressorBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.seed),
        )
        self.nodes_ = builder.build(X, y)
        self.n_leaves_ = builder.n_leaves
        gains = builder.feature_gains
        total = gains.sum()
        self.feature_importances_ = gains / total if total > 0 else gains

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.nodes_.value[descend(self.nodes_, X)[0]]
