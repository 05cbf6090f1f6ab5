"""Smoothed conditional-outcome model for sparse (local) contexts.

Local explanations condition on an individual's full non-descendant
context (Section 3.2, ``K = V``), where raw empirical frequencies have
little or no support.  Following the paper's setup ("estimated
conditional probabilities in (19)-(21) by regressing over test data
predictions"), :class:`OutcomeProbabilityModel` fits a logistic
regression of the black box's positive decision on one-hot indicators of
a chosen feature subset and answers ``Pr(o | features = codes)`` for any
code assignment — observed or not.

The regression's likelihood depends on the data only through the
(feature cell, outcome) counts, so :meth:`OutcomeProbabilityModel.fit`
takes those: one row per non-empty feature cell with its row and
positive counts (:meth:`repro.core.scores.ScoreEstimator.outcome_cells`
reads them off the contingency engine).  The fit therefore costs the
number of cells, not rows, and is a pure function of the counts: the
same for any row order of the table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.encoding import OneHotEncoder
from repro.data.table import Table
from repro.models.linear import LogisticRegression
from repro.utils.validation import check_fitted


class OutcomeProbabilityModel:
    """``Pr(o | subset of attributes)`` via one-hot logistic regression."""

    def __init__(self, features: Sequence[str], l2: float = 1e-3):
        self.features = list(features)
        self.l2 = l2
        self._encoder: OneHotEncoder | None = None
        self._model: LogisticRegression | None = None
        self._constant: float | None = None

    def fit(
        self, cells: Table, totals: np.ndarray, positives: np.ndarray
    ) -> "OutcomeProbabilityModel":
        """Fit on grouped data: row ``i`` of ``cells`` stands for
        ``totals[i]`` table rows, ``positives[i]`` of them with the
        positive decision.

        ``cells`` holds (at least) the :attr:`features` columns; the
        one-hot layout comes from their domains.  When every row has the
        same decision the regression is that constant.
        """
        subset = cells.select(self.features)
        self._encoder = OneHotEncoder(drop_first=True).fit(subset)
        n_positive, n = int(positives.sum()), int(totals.sum())
        if n_positive in (0, n):
            # Degenerate outcome: the regression is a constant.
            self._constant = n_positive / n if n else float("nan")
            self._model = None
            return self
        self._constant = None
        self._model = LogisticRegression(l2=self.l2).fit_counts(
            self._encoder.transform(subset), totals, positives
        )
        return self

    def probability(self, codes: Mapping[str, int]) -> float:
        """``Pr(o | features = codes)`` for one assignment.

        Routes through :meth:`probability_codes_batch` on a one-row
        matrix so scalar and batched answers are *bit-identical* — both
        paths accumulate the same coefficients in the same order.
        """
        row = np.array(
            [[int(codes[name]) for name in self.features]], dtype=np.int64
        )
        return float(self.probability_codes_batch(row)[0])

    def probability_codes_batch(
        self, matrix: np.ndarray | Sequence[Mapping[str, int]]
    ) -> np.ndarray:
        """``Pr(o | features = codes)`` for N assignments in one matrix pass.

        ``matrix`` is an ``(n, len(features))`` integer code matrix whose
        columns align with :attr:`features` (or a sequence of code
        mappings, converted on entry).  Answers are *bit-identical* to N
        scalar :meth:`probability` calls: both evaluate the same
        gathered-coefficient logit (:meth:`OneHotEncoder.linear_logits`),
        whose accumulation order does not depend on the batch size.
        """
        check_fitted(self, "_encoder")
        if not isinstance(matrix, np.ndarray):
            matrix = np.array(
                [[int(codes[name]) for name in self.features] for codes in matrix],
                dtype=np.int64,
            ).reshape(-1, len(self.features))
        if self._constant is not None:
            return np.full(matrix.shape[0], self._constant)
        if matrix.shape[0] == 0:
            return np.zeros(0)
        z = self._encoder.linear_logits(
            matrix, self._model.coef_[0], self._model.intercept_[0]
        )
        return 1.0 / (1.0 + np.exp(-z))

    def probability_table(self, table: Table) -> np.ndarray:
        """Vectorised ``Pr(o | row)`` for every row of ``table``."""
        check_fitted(self, "_encoder")
        if self._constant is not None:
            return np.full(len(table), self._constant)
        X = self._encoder.transform(table.select(self.features))
        return self._model.predict_proba(X)[:, 1]
