"""Global, contextual, and local explanations (Section 3.2).

Global and contextual explanations rank each attribute by the maximum of
each score over all ordered value pairs ``x > x'`` in its domain (higher
code = more favourable, per the ordinal convention or the inferred
ordering).  Local explanations decompose an individual's outcome into
positive and negative contributions of each of their attribute values,
following the four max-formulas of Section 3.2.

Every explanation can render itself as the contrastive counterfactual
sentences of the paper's template (1) via ``statements()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.scores import ScoreEstimator
from repro.data.table import Table

SCORE_KEYS = ("necessity", "sufficiency", "necessity_sufficiency")


@dataclass(frozen=True)
class AttributeScore:
    """Best-pair scores of one attribute in one context."""

    attribute: str
    necessity: float
    sufficiency: float
    necessity_sufficiency: float
    best_pair_necessity: tuple[Any, Any] | None = None
    best_pair_sufficiency: tuple[Any, Any] | None = None
    best_pair_nesuf: tuple[Any, Any] | None = None

    def score(self, kind: str) -> float:
        """Return one of the three scores by name."""
        if kind not in SCORE_KEYS:
            raise ValueError(f"unknown score kind {kind!r}; options: {SCORE_KEYS}")
        return getattr(self, kind)


@dataclass
class GlobalExplanation:
    """Per-attribute scores for a (possibly empty) context ``k``."""

    context: dict[str, Any]
    attribute_scores: list[AttributeScore]

    def ranking(self, kind: str = "necessity_sufficiency") -> list[str]:
        """Attributes ordered from most to least influential by ``kind``."""
        ordered = sorted(
            self.attribute_scores, key=lambda s: s.score(kind), reverse=True
        )
        return [s.attribute for s in ordered]

    def rank_of(self, attribute: str, kind: str = "necessity_sufficiency") -> int:
        """1-based rank of ``attribute`` under ``kind``."""
        return self.ranking(kind).index(attribute) + 1

    def score_of(self, attribute: str) -> AttributeScore:
        """The :class:`AttributeScore` of ``attribute``."""
        for s in self.attribute_scores:
            if s.attribute == attribute:
                return s
        raise KeyError(f"no score for attribute {attribute!r}")

    def statements(self, top: int = 3) -> list[str]:
        """Contrastive sentences for the ``top`` attributes by NESUF."""
        out = []
        where = (
            " for individuals with "
            + ", ".join(f"{k}={v}" for k, v in self.context.items())
            if self.context
            else ""
        )
        for attr in self.ranking("sufficiency")[:top]:
            s = self.score_of(attr)
            if s.best_pair_sufficiency is None:
                continue
            hi, lo = s.best_pair_sufficiency
            out.append(
                f"The decision would have been positive with probability "
                f"{s.sufficiency:.0%} were {attr} = {hi!r} instead of {lo!r}{where}."
            )
        return out

    def as_rows(self) -> list[dict]:
        """Tabular view: one dict per attribute (for printing/benchmarks)."""
        return [
            {
                "attribute": s.attribute,
                "necessity": s.necessity,
                "sufficiency": s.sufficiency,
                "necessity_sufficiency": s.necessity_sufficiency,
            }
            for s in self.attribute_scores
        ]


@dataclass(frozen=True)
class LocalContribution:
    """Signed contribution of one attribute value to an individual's outcome.

    ``negative`` is the probability that the value works *against* the
    individual's favourable standing, ``positive`` that it works *for* it
    (the four max-formulas of Section 3.2). ``negative_foil`` /
    ``positive_foil`` record the counterfactual value realising each max,
    for rendering contrastive statements.
    """

    attribute: str
    value: Any
    positive: float
    negative: float
    negative_foil: Any | None = None
    positive_foil: Any | None = None

    @property
    def net(self) -> float:
        """Positive minus negative contribution."""
        return self.positive - self.negative


@dataclass
class LocalExplanation:
    """Per-attribute contributions for one individual."""

    individual: dict[str, Any]
    outcome_positive: bool
    contributions: list[LocalContribution]

    def ranking(self, by: str = "negative") -> list[str]:
        """Attributes sorted by |contribution| of the requested sign."""
        key = {
            "negative": lambda c: c.negative,
            "positive": lambda c: c.positive,
            "net": lambda c: abs(c.net),
        }[by]
        return [
            c.attribute
            for c in sorted(self.contributions, key=key, reverse=True)
        ]

    def contribution_of(self, attribute: str) -> LocalContribution:
        """The contribution entry of ``attribute``."""
        for c in self.contributions:
            if c.attribute == attribute:
                return c
        raise KeyError(f"no contribution for attribute {attribute!r}")

    def statements(self, top: int = 3) -> list[str]:
        """Contrastive sentences in the paper's template (1).

        For an approved individual the interesting contrast is losing the
        decision by lowering a supporting value (necessity, positive
        contribution); for a rejected individual it is gaining the
        decision by raising a hurting value (sufficiency, negative
        contribution).
        """
        out = []
        if self.outcome_positive:
            foil_outcome = "rejected"
            key = lambda c: c.positive  # noqa: E731 - tiny local sort key
            pick = lambda c: (c.positive, c.positive_foil)  # noqa: E731
        else:
            foil_outcome = "approved"
            key = lambda c: c.negative  # noqa: E731
            pick = lambda c: (c.negative, c.negative_foil)  # noqa: E731
        for c in sorted(self.contributions, key=key, reverse=True)[:top]:
            probability, foil_value = pick(c)
            if probability <= 0 or foil_value is None:
                continue
            out.append(
                f"The decision would have been {foil_outcome} with probability "
                f"{probability:.0%} were {c.attribute} = "
                f"{foil_value!r} instead of {c.value!r}."
            )
        return out


# ---------------------------------------------------------------------------
# builders


def _ordered_pairs(cardinality: int) -> Iterable[tuple[int, int]]:
    """All (high, low) code pairs with high > low."""
    for hi in range(cardinality):
        for lo in range(hi):
            yield hi, lo


def _truncated_pairs(
    cardinality: int, max_pairs: int | None
) -> list[tuple[int, int]]:
    """Ordered value pairs of one attribute, optionally capped."""
    pairs = list(_ordered_pairs(cardinality))
    if max_pairs is not None and len(pairs) > max_pairs:
        # Prefer extreme contrasts, which carry the max in practice.
        pairs.sort(key=lambda p: p[0] - p[1], reverse=True)
        pairs = pairs[:max_pairs]
    return pairs


def build_global_explanation(
    estimator: ScoreEstimator,
    attributes: Sequence[str],
    context: Mapping[str, int] | None = None,
    context_labels: Mapping[str, Any] | None = None,
    max_pairs_per_attribute: int | None = None,
) -> GlobalExplanation:
    """Score every attribute by its best value pair in ``context``.

    ``context`` is code-level; ``context_labels`` (optional) is the
    decoded version recorded on the explanation for display.

    Every attribute's ordered value pairs are enumerated up front and
    dispatched as *one* :meth:`ScoreEstimator.scores_batch` call, so the
    whole explanation costs a few vectorized passes over the engine's
    count tensors.
    """
    context = dict(context or {})
    table = estimator.table
    scored = [a for a in attributes if a not in context]
    contrasts: list[tuple[dict, dict]] = []
    owners: list[tuple[str, int, int]] = []
    for attribute in scored:
        col = table.column(attribute)
        for hi, lo in _truncated_pairs(col.cardinality, max_pairs_per_attribute):
            contrasts.append(({attribute: hi}, {attribute: lo}))
            owners.append((attribute, hi, lo))
    triples = estimator.scores_batch(contrasts, context)

    best = {a: {k: 0.0 for k in SCORE_KEYS} for a in scored}
    best_pair: dict[str, dict[str, tuple | None]] = {
        a: {k: None for k in SCORE_KEYS} for a in scored
    }
    for (attribute, hi, lo), triple in zip(owners, triples):
        col = table.column(attribute)
        for key in SCORE_KEYS:
            value = getattr(triple, key)
            if value > best[attribute][key]:
                best[attribute][key] = value
                best_pair[attribute][key] = (col.categories[hi], col.categories[lo])
    scores = [
        AttributeScore(
            attribute=attribute,
            necessity=best[attribute]["necessity"],
            sufficiency=best[attribute]["sufficiency"],
            necessity_sufficiency=best[attribute]["necessity_sufficiency"],
            best_pair_necessity=best_pair[attribute]["necessity"],
            best_pair_sufficiency=best_pair[attribute]["sufficiency"],
            best_pair_nesuf=best_pair[attribute]["necessity_sufficiency"],
        )
        for attribute in scored
    ]
    labels = dict(context_labels or {})
    if not labels and context:
        labels = {
            name: table.column(name).categories[code]
            for name, code in context.items()
        }
    return GlobalExplanation(context=labels, attribute_scores=scores)


def build_local_explanation(
    estimator: ScoreEstimator,
    individual: Table,
    outcome_positive: bool,
    attributes: Sequence[str],
) -> LocalExplanation:
    """Contributions of each attribute value for one individual.

    ``individual`` is a one-row table in the estimator's domains.

    Implements the four formulas of Section 3.2: for a *negative* outcome
    the negative contribution of the current value ``x'`` is
    ``max_{x > x'} SUF^{x'}_x(k)`` and its positive contribution
    ``max_{x'' < x'} SUF^{x''}_{x'}(k)``; for a *positive* outcome the
    positive contribution is ``max_{x'' < x'} NEC^{x''}_{x'}(k)`` and the
    negative contribution ``max_{x > x'} NEC^{x'}_x(k)``.

    This is the ``N = 1`` case of :func:`build_local_explanations_batch`.
    """
    return build_local_explanations_batch(
        estimator, individual, [outcome_positive], attributes
    )[0]


def _masked_best(
    scores: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (max, first argmax) of ``scores`` restricted to ``mask``.

    Ties go to the lowest code, as in a scan in ascending code order
    that replaces its incumbent only on a *strictly* greater score, so
    the reported foil is the lowest code achieving the maximum.  Rows
    with no candidate (empty mask) report ``-inf``.
    """
    masked = np.where(mask, scores, -np.inf)
    return masked.max(axis=1), masked.argmax(axis=1)


def build_local_explanations_batch(
    estimator: ScoreEstimator,
    cohort: Table,
    outcomes_positive: Sequence[bool] | np.ndarray,
    attributes: Sequence[str],
) -> list[LocalExplanation]:
    """Local explanations for a whole cohort in a few matrix passes.

    ``cohort`` holds one row per individual, in the estimator's domains.
    Rather than ``attributes × value-pairs × 2`` regression probes *per
    individual*, the entire cohort's probes are assembled, deduplicated
    and answered through :meth:`ScoreEstimator.local_score_arrays` (one
    fitted model and one matrix pass per attribute group), and the four
    max-formulas of Section 3.2 reduce to masked row-wise maxima.
    Results are identical to ``[build_local_explanation(...) for each
    row]``; each individual is echoed in the cohort's column order.
    """
    positives = np.asarray(outcomes_positive, dtype=bool)
    if len(positives) != len(cohort):
        raise ValueError("outcomes_positive must align with the cohort")
    table = estimator.table
    if len(cohort) == 0:
        return []
    arrays = estimator.local_score_arrays(cohort, attributes)
    per_attribute: dict[str, list[LocalContribution]] = {}
    for attribute in attributes:
        scores = arrays[attribute]
        categories = table.column(attribute).categories
        card = scores.cardinality
        values = np.arange(card)
        lower = values[None, :] < scores.current[:, None]
        higher = values[None, :] > scores.current[:, None]
        # Positive-outcome rows read the necessity arrays, negative-
        # outcome rows the sufficiency arrays (Section 3.2).
        chosen = np.where(
            positives[:, None], scores.necessity, scores.sufficiency
        )
        best_pos, foil_pos = _masked_best(chosen, lower)
        best_neg, foil_neg = _masked_best(chosen, higher)
        # Pull everything into plain-Python lists once: the assembly
        # loop below runs n times per attribute, and per-element numpy
        # scalar access would dominate the whole batch at cohort scale.
        per_attribute[attribute] = [
            LocalContribution(
                attribute,
                categories[c],
                p if p > 0.0 else 0.0,
                g if g > 0.0 else 0.0,
                categories[gf] if g > 0.0 else None,
                categories[pf] if p > 0.0 else None,
            )
            for c, p, g, pf, gf in zip(
                scores.current.tolist(),
                best_pos.tolist(),
                best_neg.tolist(),
                foil_pos.tolist(),
                foil_neg.tolist(),
            )
        ]
    labels = zip(*(column.decode() for column in cohort))
    return [
        LocalExplanation(
            individual=dict(zip(cohort.names, row)),
            outcome_positive=positive,
            contributions=[per_attribute[a][i] for a in attributes],
        )
        for i, (row, positive) in enumerate(zip(labels, positives.tolist()))
    ]
