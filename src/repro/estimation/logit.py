"""The one count-fitted one-hot logit of the black box's decision.

Two LEWIS estimates rest on a logistic regression of the positive
decision on one-hot indicators of a feature subset:

* the recourse IP (Section 4.2) linearises the sufficiency constraint

      Pr(o | a_hat, k) >= Pr(o | a, k) + alpha * Pr(o' | a, k)

  through the log-odds over the actionable attributes plus the (fixed)
  context attributes: :class:`LogitModel`'s per-category coefficients
  become the weights of the IP's linear constraint (Eq. 28);
* the local scores (Section 5.2) read ``Pr(o | X, K)`` off the same
  regression, with a weak penalty and a constant fallback
  (:class:`~repro.estimation.outcome_model.OutcomeProbabilityModel`).

The likelihood depends on the data only through the non-empty (feature
cell, outcome) counts, so :meth:`LogitModel.fit` takes those (one row
per cell with its row and positive counts, as
:meth:`repro.core.scores.ScoreEstimator.outcome_cells` reads them off
the contingency engine): the fit costs the number of cells, not rows,
and is the same for any row order of the table.  Scores take code
matrices whose columns follow :attr:`LogitModel.features`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.encoding import OneHotEncoder
from repro.data.table import Table
from repro.models.linear import LogisticRegression
from repro.utils.validation import check_fitted


def logit(p: float, eps: float = 1e-6) -> float:
    """Numerically clipped log-odds."""
    p = min(max(p, eps), 1 - eps)
    return float(np.log(p / (1 - p)))


class LogitModel:
    """Linear log-odds model of the positive decision over ``features``.

    For recourse, ``features`` lists the actionable attributes, whose
    coefficients the IP optimises over, then the context attributes
    held fixed (non-descendants of the actionable set), which enter the
    regression so the model conditions on ``k``.
    """

    def __init__(self, features: Sequence[str], l2: float = 1.0):
        # The default L2 is deliberately strong: sparse one-hot cells are
        # quasi-separated, and an under-regularised fit extrapolates to
        # saturated probabilities that make the recourse IP accept
        # ineffective actions.
        self.features = list(features)
        self.l2 = float(l2)
        self._encoder: OneHotEncoder | None = None
        self._model: LogisticRegression | None = None

    def _fit_cells(
        self, cells: Table, totals: np.ndarray, positives: np.ndarray
    ) -> None:
        """The one encoder and IRLS fit behind every ``fit``.

        A subclass's ``fit`` calls this rather than :meth:`fit`, so a
        per-function profile books each model's fits to its own class.
        """
        subset = cells.select(self.features)
        self._encoder = OneHotEncoder(drop_first=True).fit(subset)
        self._model = LogisticRegression(l2=self.l2).fit_counts(
            self._encoder.transform(subset), totals, positives
        )

    def fit(
        self, cells: Table, totals: np.ndarray, positives: np.ndarray
    ) -> "LogitModel":
        """Fit on grouped data: row ``i`` of ``cells`` stands for
        ``totals[i]`` table rows, ``positives[i]`` of them with O = o.

        ``cells`` holds (at least) the :attr:`features` columns; the
        one-hot layout comes from their domains.  Raises ``ValueError``
        when every row has the same decision or the counts do not align
        with the cells.
        """
        self._fit_cells(cells, totals, positives)
        return self

    # -- views used by the IP builder ------------------------------------------

    def coefficient_vector(self, attribute: str) -> np.ndarray:
        """Per-category log-odds contributions of ``attribute``, code order.

        Entry 0 (the dropped first category) is 0 by construction.
        """
        check_fitted(self, "_model")
        block = self._encoder.feature_slice(attribute)
        out = np.zeros(block.stop - block.start + 1)
        out[1:] = self._model.coef_[0][block]
        return out

    def score_codes_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Log-odds of the positive decision for N code assignments.

        ``matrix`` is an ``(n, len(features))`` integer code matrix whose
        columns follow :attr:`features`.  Each row's log-odds is the same
        bits whether it is scored alone or in any batch (see
        :meth:`OneHotEncoder.linear_logits`).
        """
        check_fitted(self, "_model")
        return self._encoder.linear_logits(
            matrix, self._model.coef_[0], self._model.intercept_[0]
        )
