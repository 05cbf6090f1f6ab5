"""Logit model of ``Pr(o | a, k)`` used to linearise the recourse IP.

Section 4.2 of the paper rewrites the sufficiency constraint as

    Pr(o | a_hat, k) >= Pr(o | a, k) + alpha * Pr(o' | a, k)

and estimates the logit of the left-hand side with a linear model over
the actionable attributes.  :class:`LogitModel` fits a logistic
regression of the black box's positive decision on one-hot indicators of
the actionable attributes plus the (fixed) context attributes; the
per-category coefficients become the weights of the IP's linear
constraint.  Like the local outcome model it is fitted from the
non-empty (feature cell, outcome) counts rather than the rows, so its
coefficients depend on the table only through those counts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
    """Linear log-odds model of the positive decision.

    Parameters
    ----------
    actionable:
        Attribute names whose coefficients the recourse IP optimises over.
    context:
        Attribute names held fixed (non-descendants of the actionable set);
        they enter the regression so the model conditions on ``k``.
    """

    def __init__(
        self,
        actionable: Sequence[str],
        context: Sequence[str] = (),
        l2: float = 1.0,
    ):
        # The default L2 is deliberately strong: sparse one-hot cells are
        # quasi-separated, and an under-regularised fit extrapolates to
        # saturated probabilities that make the recourse IP accept
        # ineffective actions.
        self.actionable = list(actionable)
        self.context = list(context)
        self.l2 = float(l2)
        self._encoder: OneHotEncoder | None = None
        self._model: LogisticRegression | None = None

    def fit(
        self, cells: Table, totals: np.ndarray, positives: np.ndarray
    ) -> "LogitModel":
        """Fit on grouped data: row ``i`` of ``cells`` stands for
        ``totals[i]`` table rows, ``positives[i]`` of them with O = o.

        ``cells`` holds the ``actionable + context`` columns; the
        one-hot layout comes from their domains.  Raises ``ValueError``
        when every row has the same decision or the counts do not align
        with the cells.
        """
        subset = cells.select(self.actionable + self.context)
        self._encoder = OneHotEncoder(drop_first=True).fit(subset)
        self._model = LogisticRegression(l2=self.l2).fit_counts(
            self._encoder.transform(subset), totals, positives
        )
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

    def score_codes_batch(
        self, matrix: np.ndarray | Sequence[Mapping[str, int]]
    ) -> np.ndarray:
        """Log-odds of the positive decision for N code assignments.

        ``matrix`` is ``(n, len(actionable) + len(context))`` with
        columns in ``actionable + context`` order (or a sequence of code
        mappings).  Each row's log-odds is the same bits whether it is
        scored alone or in any batch (see
        :meth:`OneHotEncoder.linear_logits`).
        """
        check_fitted(self, "_model")
        names = self.actionable + self.context
        if not isinstance(matrix, np.ndarray):
            matrix = np.array(
                [[int(codes[name]) for name in names] for codes in matrix],
                dtype=np.int64,
            ).reshape(-1, len(names))
        return self._encoder.linear_logits(
            matrix, self._model.coef_[0], self._model.intercept_[0]
        )
