"""Feature encodings that turn a :class:`~repro.data.table.Table` into
numeric matrices consumable by the ML substrate.

Two encodings are provided:

* :func:`ordinal_matrix` — each column becomes one integer feature (its
  code). Appropriate for tree models, which split on thresholds over the
  ordinal codes.
* :class:`OneHotEncoder` — each category becomes one 0/1 feature.
  Appropriate for linear models, neural networks, LIME/SHAP surrogates and
  the recourse logit model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.utils.validation import check_fitted


def ordinal_matrix(table: Table, names: Sequence[str] | None = None) -> np.ndarray:
    """Return the integer code matrix of ``names`` as ``float64``."""
    return table.codes_matrix(names).astype(np.float64)


class OneHotEncoder:
    """One-hot encoding with a fixed, fit-time feature layout.

    The layout is derived from column domains (not observed values), so
    transforming a table with unseen *rows* is always safe as long as the
    schema matches.
    """

    def __init__(self, drop_first: bool = False):
        self.drop_first = drop_first
        self.columns_: list[str] | None = None
        self.domains_: dict[str, tuple] | None = None
        self.feature_names_: list[str] | None = None
        self._slices: dict[str, slice] = {}

    def fit(self, table: Table, names: Sequence[str] | None = None) -> "OneHotEncoder":
        """Record the encoding layout from ``table``'s column domains."""
        names = list(names) if names is not None else table.names
        self.columns_ = names
        self.domains_ = {n: table.domain(n) for n in names}
        self.feature_names_ = []
        self._slices = {}
        start = 0
        for name in names:
            cats = self.domains_[name][1 if self.drop_first else 0:]
            self.feature_names_.extend(f"{name}={c}" for c in cats)
            self._slices[name] = slice(start, start + len(cats))
            start += len(cats)
        return self

    @property
    def n_features(self) -> int:
        """Width of the encoded matrix."""
        check_fitted(self, "feature_names_")
        return len(self.feature_names_)

    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` into an ``(n, n_features)`` float matrix."""
        check_fitted(self, "columns_")
        n = len(table)
        out = np.zeros((n, self.n_features), dtype=np.float64)
        offset = 1 if self.drop_first else 0
        for name in self.columns_:
            col = table.column(name)
            if col.categories != self.domains_[name]:
                raise ValueError(
                    f"column {name!r}: domain changed since fit"
                )
            block = self._slices[name]
            codes = col.codes - offset
            valid = codes >= 0
            rows = np.nonzero(valid)[0]
            out[rows, block.start + codes[valid]] = 1.0
        return out

    def fit_transform(self, table: Table, names: Sequence[str] | None = None) -> np.ndarray:
        """Fit the layout on ``table`` and return its encoding."""
        return self.fit(table, names).transform(table)

    def transform_codes(self, codes: dict[str, int]) -> np.ndarray:
        """Encode one row given as ``{column: code}``; returns shape (n_features,)."""
        check_fitted(self, "columns_")
        out = np.zeros(self.n_features, dtype=np.float64)
        offset = 1 if self.drop_first else 0
        for name in self.columns_:
            code = codes[name] - offset
            if code >= 0:
                out[self._slices[name].start + code] = 1.0
        return out

    def linear_logits(
        self, matrix: np.ndarray, coef: np.ndarray, intercept: float
    ) -> np.ndarray:
        """``intercept + coef . one_hot(row)`` for each row of a code matrix.

        Columns of ``matrix`` align with :attr:`columns_` (fit order);
        ``coef`` is laid out like :attr:`feature_names_`.  A one-hot row
        has exactly one active coefficient per column, so the logit is
        the intercept plus one gathered coefficient per column, added in
        fit order.  Gathering keeps the floating-point accumulation
        order independent of the batch size — a BLAS matmul over the
        stacked indicator matrix does not (gemm vs dot kernels reorder
        sums by ~1e-16, which score formulas dividing by small
        probabilities amplify past the 1e-12 parity contract).
        """
        check_fitted(self, "columns_")
        z = np.full(matrix.shape[0], float(intercept), dtype=np.float64)
        offset = 1 if self.drop_first else 0
        for j, name in enumerate(self.columns_):
            codes = matrix[:, j].astype(np.int64) - offset
            block = coef[self._slices[name]]
            valid = codes >= 0
            z[valid] += block[codes[valid]]
        return z

    def feature_slice(self, name: str) -> slice:
        """Return the slice of encoded features belonging to column ``name``."""
        check_fitted(self, "columns_")
        return self._slices[name]
