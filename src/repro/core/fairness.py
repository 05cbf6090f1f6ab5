"""Counterfactual-fairness auditing (Section 6 of the paper).

The paper shows counterfactual fairness (Kusner et al. 2017) is captured
by the explanation scores: an algorithm is counterfactually fair w.r.t.
a protected attribute iff the attribute's sufficiency score AND
necessity score are both zero.  :class:`FairnessAuditor` packages that
check, reports per-contrast and per-context score tables, and computes
the classical observational disparity for reference.

:func:`max_pair_scores` is the one reading of an attribute's worst
contrast, behind both :meth:`FairnessAuditor.audit` and the streaming
fairness monitor (:mod:`repro.monitor.summaries`), and
:func:`group_outcome_counts` the one count read behind the disparity and
monotonicity diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.lewis import Lewis


def group_outcome_counts(
    engine,
    attribute: str,
    outcome: str = "__outcome__",
    context: Mapping[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(positives, totals)`` per code of ``attribute`` from the engine's counts.

    One read of the engine's incrementally maintained counts over
    ``attribute`` and ``outcome`` inside ``context`` instead of a row
    scan — the O(cardinality) primitive behind the disparity and
    monotonicity diagnostics and their streaming monitors.  ``context``
    pins columns to codes; only rows inside it are counted (a pin on
    ``attribute`` itself leaves only its own code's row non-zero).
    """
    counts = engine._counts_nd(context or {}, free_names=[attribute, outcome])
    if outcome < attribute:  # free axes come back in sorted name order
        counts = counts.T
    return counts[:, 1], counts.sum(axis=1)


def max_pair_scores(
    estimator, attribute: str
) -> tuple[float, float, tuple[int, int] | None]:
    """``(max NEC, max SUF, worst pair)`` over every ordered value pair.

    The pairs ``(hi, lo)`` with ``hi > lo`` run in code order and are
    scored in one :meth:`ScoreEstimator.score_arrays` pass.  The worst
    pair is the codes of the first pair whose larger score is the
    largest of all, or ``None`` when every score is zero.
    """
    card = estimator._features.column(attribute).cardinality
    pairs = [(hi, lo) for hi in range(card) for lo in range(hi)]
    if not pairs:
        return 0.0, 0.0, None
    arrays = estimator.score_arrays(
        [({attribute: hi}, {attribute: lo}) for hi, lo in pairs],
        kinds=("necessity", "sufficiency"),
    )
    nec, suf = arrays["necessity"], arrays["sufficiency"]
    worst = np.maximum(nec, suf)
    first = int(np.argmax(worst))
    return (
        float(nec.max()),
        float(suf.max()),
        pairs[first] if worst[first] > 0 else None,
    )


def demographic_disparity_from_counts(
    positives: np.ndarray, totals: np.ndarray
) -> float:
    """Largest positive-rate gap across supported groups, from counts.

    Bit-identical to the O(n) row scan it replaces (kept as an oracle in
    ``tests/oracles.py``): both reduce to the same integer-count
    divisions.
    """
    rates = [
        p / t for p, t in zip(positives.tolist(), totals.tolist()) if t > 0
    ]
    if len(rates) < 2:
        return 0.0
    return float(max(rates) - min(rates))


@dataclass(frozen=True)
class FairnessVerdict:
    """Audit result for one protected attribute.

    ``necessity`` / ``sufficiency`` are the maxima over all ordered value
    pairs of the protected attribute; the algorithm is counterfactually
    fair iff both are (statistically) zero.
    """

    attribute: str
    necessity: float
    sufficiency: float
    worst_pair: tuple[Any, Any] | None
    demographic_disparity: float
    tolerance: float

    @property
    def is_counterfactually_fair(self) -> bool:
        """Both causal scores vanish (up to ``tolerance``)."""
        return self.necessity <= self.tolerance and self.sufficiency <= self.tolerance

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = (
            "counterfactually FAIR"
            if self.is_counterfactually_fair
            else "NOT counterfactually fair"
        )
        detail = (
            f"NEC={self.necessity:.3f}, SUF={self.sufficiency:.3f}, "
            f"observational disparity={self.demographic_disparity:+.3f}"
        )
        return f"{self.attribute}: {status} ({detail})"


@dataclass
class ContextualDisparity:
    """Score gap of an attribute between two sub-populations."""

    attribute: str
    context_a: dict[str, Any]
    context_b: dict[str, Any]
    sufficiency_gap: float
    necessity_gap: float


class FairnessAuditor:
    """Audits a fitted :class:`~repro.core.lewis.Lewis` explainer."""

    def __init__(self, lewis: Lewis, tolerance: float = 0.05):
        if not 0.0 <= tolerance < 1.0:
            raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
        self._lewis = lewis
        self.tolerance = float(tolerance)

    def audit(self, protected: str) -> FairnessVerdict:
        """Counterfactual-fairness verdict for one protected attribute."""
        necessity, sufficiency, worst = max_pair_scores(
            self._lewis.estimator, protected
        )
        categories = self._lewis.data.column(protected).categories
        return FairnessVerdict(
            attribute=protected,
            necessity=necessity,
            sufficiency=sufficiency,
            worst_pair=(
                None if worst is None else tuple(categories[c] for c in worst)
            ),
            demographic_disparity=self.demographic_disparity(protected),
            tolerance=self.tolerance,
        )

    def audit_all(self, protected: Sequence[str]) -> list[FairnessVerdict]:
        """Audit several protected attributes."""
        return [self.audit(p) for p in protected]

    def demographic_disparity(self, protected: str) -> float:
        """Largest gap in positive-decision rates across the groups.

        Purely observational (no causal claim); reported alongside the
        causal verdict because the two can disagree — a fair algorithm
        can show disparity through correlated non-protected attributes,
        and vice versa.
        """
        estimator = self._lewis.estimator
        return demographic_disparity_from_counts(
            *group_outcome_counts(estimator.engine, protected, estimator._outcome)
        )

    def contextual_disparity(
        self,
        attribute: str,
        context_a: Mapping[str, Any],
        context_b: Mapping[str, Any],
    ) -> ContextualDisparity:
        """Figure-4-style gap: how differently an intervention lands.

        Computes the attribute's best-pair sufficiency/necessity inside
        each context and reports the (a - b) gaps — e.g. the COMPAS
        experiments contrast ``{"race": "White"}`` vs ``{"race": "Black"}``.
        """
        lewis = self._lewis
        score_a = lewis.explain_context(dict(context_a), attributes=[attribute]).score_of(
            attribute
        )
        score_b = lewis.explain_context(dict(context_b), attributes=[attribute]).score_of(
            attribute
        )
        return ContextualDisparity(
            attribute=attribute,
            context_a=dict(context_a),
            context_b=dict(context_b),
            sufficiency_gap=score_a.sufficiency - score_b.sufficiency,
            necessity_gap=score_a.necessity - score_b.necessity,
        )
