"""Bootstrap uncertainty for explanation scores.

Figure 11b of the paper shows estimation variance shrinking with sample
size; this module makes that uncertainty a first-class output: resample
the black box's input-output table with replacement, recompute a score
per replicate, and report percentile confidence intervals.  A downstream
user can then distinguish "sufficiency 0.6 ± 0.02" from
"0.6 ± 0.3" before acting on an explanation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.causal.graph import CausalDiagram
from repro.core.scores import SCORE_KINDS, ScoreEstimator
from repro.data.table import Table
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class ScoreInterval:
    """Point estimate plus a percentile bootstrap interval."""

    point: float
    lower: float
    upper: float
    level: float
    n_bootstrap: int

    @property
    def width(self) -> float:
        """Interval width — the practical uncertainty measure."""
        return self.upper - self.lower

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.point:.3f} [{self.lower:.3f}, {self.upper:.3f}]"


class BootstrapScores:
    """Percentile-bootstrap intervals around :class:`ScoreEstimator` scores."""

    def __init__(
        self,
        features: Table,
        positive: np.ndarray,
        diagram: CausalDiagram | None = None,
        n_bootstrap: int = 50,
        seed: int | np.random.Generator | None = 0,
    ):
        if n_bootstrap < 2:
            raise ValueError("n_bootstrap must be at least 2")
        self._features = features
        self._positive = np.asarray(positive, dtype=bool)
        if len(self._positive) != len(features):
            raise ValueError("positive vector length must match the table")
        self._diagram = diagram
        self.n_bootstrap = int(n_bootstrap)
        self._rng = as_generator(seed)
        self._point = ScoreEstimator(features, self._positive, diagram=diagram)

    def _replicate(self) -> ScoreEstimator:
        n = len(self._features)
        rows = self._rng.integers(0, n, size=n)
        return ScoreEstimator(
            self._features.take(rows), self._positive[rows], diagram=self._diagram
        )

    def interval(
        self,
        kind: str,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
        level: float = 0.9,
    ) -> ScoreInterval:
        """Bootstrap interval for one score of one contrast.

        ``kind`` is ``necessity`` / ``sufficiency`` /
        ``necessity_sufficiency``; ``level`` the two-sided coverage.
        """
        check_probability(level, "level")
        contrast = [(treatment, baseline)]
        point = self._point.score_arrays(contrast, context, kinds=(kind,))[kind][0]
        draws = np.empty(self.n_bootstrap)
        for i in range(self.n_bootstrap):
            estimator = self._replicate()
            draws[i] = estimator.score_arrays(contrast, context, kinds=(kind,))[
                kind
            ][0]
        tail = (1.0 - level) / 2.0
        lower, upper = np.quantile(draws, [tail, 1.0 - tail])
        return ScoreInterval(
            point=float(point),
            lower=float(lower),
            upper=float(upper),
            level=level,
            n_bootstrap=self.n_bootstrap,
        )

    def intervals(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
        level: float = 0.9,
    ) -> dict[str, ScoreInterval]:
        """All three scores' intervals, sharing the bootstrap replicates."""
        return self.intervals_batch([(treatment, baseline)], context, level)[0]

    def intervals_batch(
        self,
        contrasts: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
        context: Mapping[str, int] | None = None,
        level: float = 0.9,
    ) -> list[dict[str, ScoreInterval]]:
        """Intervals for many contrasts, sharing the bootstrap replicates.

        Every replicate evaluates *all* contrasts and all three score
        kinds with one :meth:`ScoreEstimator.score_arrays` call, so the
        bootstrap cost is ``n_bootstrap`` vectorized passes rather than
        ``n_bootstrap × n_contrasts × 3`` scalar score computations.
        Entry ``i`` of the result holds ``{kind: ScoreInterval}`` for
        ``contrasts[i]``.
        """
        check_probability(level, "level")
        contrasts = list(contrasts)
        points = self._point.score_arrays(contrasts, context)
        draws = {
            kind: np.empty((self.n_bootstrap, len(contrasts)))
            for kind in SCORE_KINDS
        }
        for i in range(self.n_bootstrap):
            estimator = self._replicate()
            replicate = estimator.score_arrays(contrasts, context)
            for kind in SCORE_KINDS:
                draws[kind][i] = replicate[kind]
        tail = (1.0 - level) / 2.0
        out: list[dict[str, ScoreInterval]] = []
        for j in range(len(contrasts)):
            entry = {}
            for kind in SCORE_KINDS:
                lower, upper = np.quantile(draws[kind][:, j], [tail, 1.0 - tail])
                entry[kind] = ScoreInterval(
                    point=float(points[kind][j]),
                    lower=float(lower),
                    upper=float(upper),
                    level=level,
                    n_bootstrap=self.n_bootstrap,
                )
            out.append(entry)
        return out
