"""Smoothed conditional-outcome model for sparse (local) contexts.

Local explanations condition on an individual's full non-descendant
context (Section 3.2, ``K = V``), where raw empirical frequencies have
little or no support.  Following the paper's setup ("estimated
conditional probabilities in (19)-(21) by regressing over test data
predictions"), :class:`OutcomeProbabilityModel` answers
``Pr(o | features = codes)`` for any code assignment, observed or not,
as the sigmoid of :class:`~repro.estimation.logit.LogitModel`'s log-odds:
the same count-fitted one-hot regression, with a weak default penalty
and a constant answer when every row has the same decision.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.estimation.logit import LogitModel


class OutcomeProbabilityModel(LogitModel):
    """``Pr(o | subset of attributes)`` via one-hot logistic regression."""

    def __init__(self, features: Sequence[str], l2: float = 1e-3):
        super().__init__(features, l2)
        self._constant: float | None = None

    def fit(
        self, cells: Table, totals: np.ndarray, positives: np.ndarray
    ) -> "OutcomeProbabilityModel":
        """:meth:`LogitModel.fit`, except that when every row has the
        same decision the regression is that constant."""
        n_positive, n = int(positives.sum()), int(totals.sum())
        if n_positive in (0, n):
            self._constant = n_positive / n if n else float("nan")
            self._encoder = self._model = None
            return self
        self._constant = None
        self._fit_cells(cells, totals, positives)
        return self

    def probability_codes_batch(self, matrix: np.ndarray) -> np.ndarray:
        """``Pr(o | features = codes)`` for the rows of an ``(n,
        len(features))`` code matrix: the sigmoid of
        :meth:`score_codes_batch`, so each row's answer is the same bits
        alone or in any batch."""
        if self._constant is not None:
            return np.full(matrix.shape[0], self._constant)
        z = self.score_codes_batch(matrix)
        return 1.0 / (1.0 + np.exp(-z))
