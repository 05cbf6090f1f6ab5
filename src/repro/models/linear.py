"""Linear models: ridge-regularised least squares and logistic regression.

Logistic regression is fit by Newton-Raphson (IRLS) with L2
regularisation — stable on the one-hot matrices the library produces,
and exposes ``coef_`` / ``intercept_`` which the recourse logit model
(Section 4.2), the local outcome model and the LinearIP baseline
(Section 5.4) consume.  One IRLS loop serves two inputs: ``fit`` takes
one row per observation, ``fit_counts`` one row per distinct cell with
its observation and positive counts (the form the explainers fit from
the contingency engine's cells).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseClassifier, BaseRegressor, _as_matrix


class LinearRegression(BaseRegressor):
    """Ordinary / ridge least squares via the normal equations."""

    def __init__(self, l2: float = 0.0):
        super().__init__()
        self.l2 = float(l2)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        Xb = np.column_stack([X, np.ones(n)])
        penalty = self.l2 * np.eye(d + 1)
        penalty[-1, -1] = 0.0  # never penalise the intercept
        theta = np.linalg.solve(Xb.T @ Xb + penalty, Xb.T @ y)
        self.coef_ = theta[:-1]
        self.intercept_ = float(theta[-1])

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class LogisticRegression(BaseClassifier):
    """Binary or one-vs-rest logistic regression fit by IRLS."""

    def __init__(self, l2: float = 1e-4, max_iter: int = 100, tol: float = 1e-8):
        super().__init__()
        self.l2 = float(l2)
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None  # (n_problems, d)
        self.intercept_: np.ndarray | None = None

    def fit_counts(self, X, totals, positives) -> "LogisticRegression":
        """Binary fit on grouped observations.

        Row ``i`` of ``X`` stands for ``totals[i]`` observations, of
        which ``positives[i]`` are positive: the likelihood of one-hot
        data depends on it only through these counts, so a fit over the
        distinct cells equals the fit over the rows they group.  Raises
        ``ValueError`` when every observation has the same label, like
        :meth:`fit` on a single class.
        """
        X = _as_matrix(X)
        totals = np.asarray(totals, dtype=np.float64)
        positives = np.asarray(positives, dtype=np.float64)
        if not len(X) == len(totals) == len(positives):
            raise ValueError(
                f"X has {len(X)} rows, totals {len(totals)}, positives {len(positives)}"
            )
        if not 0 < positives.sum() < totals.sum():
            raise ValueError("need at least two classes to fit a classifier")
        self.classes_ = np.array([0, 1])
        coef, intercept = self._fit_binary(X, positives, totals)
        self.coef_ = coef[None, :]
        self.intercept_ = np.array([intercept])
        return self

    def _fit_binary(
        self, X: np.ndarray, target: np.ndarray, totals: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """IRLS for one binary problem.

        Row ``i`` weighs ``totals[i]`` observations and ``target[i]``
        counts its positives; a row fit passes ones and 0/1 targets
        (multiplying by 1.0 is exact, so it costs no bits).
        """
        n, d = X.shape
        Xb = np.column_stack([X, np.ones(n)])
        theta = np.zeros(d + 1)
        penalty = self.l2 * np.eye(d + 1)
        penalty[-1, -1] = 0.0
        for _ in range(self.max_iter):
            p = _sigmoid(Xb @ theta)
            gradient = Xb.T @ (totals * p - target) + penalty @ theta
            w = totals * np.clip(p * (1 - p), 1e-9, None)
            hessian = (Xb * w[:, None]).T @ Xb + penalty + 1e-9 * np.eye(d + 1)
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
            theta -= step
            if np.max(np.abs(step)) < self.tol:
                break
        return theta[:-1], float(theta[-1])

    def _fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> None:
        n_problems = 1 if n_classes == 2 else n_classes
        ones = np.ones(len(X))
        coefs, intercepts = [], []
        for problem in range(n_problems):
            target = (y_idx == (problem if n_problems > 1 else 1)).astype(float)
            coef, intercept = self._fit_binary(X, target, ones)
            coefs.append(coef)
            intercepts.append(intercept)
        self.coef_ = np.array(coefs)
        self.intercept_ = np.array(intercepts)

    def decision_function(self, X) -> np.ndarray:
        """Raw logits: shape (n,) binary, (n, n_classes) multiclass."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        scores = X @ self.coef_.T + self.intercept_
        return scores[:, 0] if scores.shape[1] == 1 else scores

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = X @ self.coef_.T + self.intercept_
        if scores.shape[1] == 1:
            pos = _sigmoid(scores[:, 0])
            return np.column_stack([1 - pos, pos])
        probs = _sigmoid(scores)
        totals = probs.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return probs / totals
