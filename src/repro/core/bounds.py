"""Fréchet-style bounds on the explanation scores (Proposition 4.1).

These bounds require only interventional quantities ``Pr(o | do(x), k)``
(identified via the backdoor criterion) plus joint observational
probabilities, and hold *without* the monotonicity assumption:

    NEC:   max(0, [P(o,x|k)+P(o,x'|k)-P(o|do(x'),k)] / P(o,x|k))
           <= NEC <= min([P(o'|do(x'),k)-P(o',x'|k)] / P(o,x|k), 1)

    SUF:   max(0, [P(o',x|k)+P(o',x'|k)-P(o'|do(x),k)] / P(o',x'|k))
           <= SUF <= min([P(o|do(x),k)-P(o,x|k)] / P(o',x'|k), 1)

    NESUF: max(0, P(o|do(x),k)-P(o|do(x'),k))
           <= NESUF <= min(P(o|do(x),k), P(o'|do(x'),k))

The NESUF lower bound is the (conditional) causal effect of X on O, which
is the bridge to Proposition 4.4's zero-score characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.scores import ScoreEstimator


@dataclass(frozen=True)
class ScoreBounds:
    """Lower/upper bounds for the three scores of one contrast."""

    necessity: tuple[float, float]
    sufficiency: tuple[float, float]
    necessity_sufficiency: tuple[float, float]

    def contains(self, necessity: float, sufficiency: float, nesuf: float, tol: float = 1e-9) -> bool:
        """Check whether a score triple lies within all three intervals."""
        lo, hi = self.necessity
        if not lo - tol <= necessity <= hi + tol:
            return False
        lo, hi = self.sufficiency
        if not lo - tol <= sufficiency <= hi + tol:
            return False
        lo, hi = self.necessity_sufficiency
        return lo - tol <= nesuf <= hi + tol


def _interval(lower: float, upper: float) -> tuple[float, float]:
    lower = max(0.0, min(lower, 1.0))
    upper = max(0.0, min(upper, 1.0))
    if lower > upper:
        # Sampling noise can invert degenerate intervals; collapse them.
        lower = upper = (lower + upper) / 2.0
    return (lower, upper)


class BoundsEstimator:
    """Computes Proposition 4.1 bounds on top of a :class:`ScoreEstimator`."""

    def __init__(self, estimator: ScoreEstimator):
        self._est = estimator

    def bounds(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
    ) -> ScoreBounds:
        """Proposition 4.1 bounds for the contrast ``treatment`` vs ``baseline``."""
        return self.bounds_batch([(treatment, baseline)], context)[0]

    def bounds_batch(
        self,
        contrasts: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
        context: Mapping[str, int] | None = None,
    ) -> list[ScoreBounds]:
        """Proposition 4.1 bounds for many contrasts in one vectorized pass.

        Contrasts are grouped by their attribute signature; each group's
        interventional terms ``Pr(o | do(·), k)`` are evaluated as one
        batched adjustment sum and the joint observational terms as one
        batched probability query, so N contrasts cost a handful of
        tensor lookups.  Results align with the input order and match
        :meth:`bounds` exactly.
        """
        context = dict(context or {})
        pairs = [(dict(t), dict(b)) for t, b in contrasts]
        engine = self._est.engine
        outcome = self._est._outcome
        out: list[ScoreBounds | None] = [None] * len(pairs)
        groups: dict[tuple, list[int]] = {}
        for i, (treatment, baseline) in enumerate(pairs):
            key = (tuple(sorted(treatment)), tuple(sorted(baseline)))
            groups.setdefault(key, []).append(i)
        for (sig_t, sig_b), indices in groups.items():
            treatments = [pairs[i][0] for i in indices]
            baselines = [pairs[i][1] for i in indices]
            adj_t = self._est._adjustment_for(list(sig_t), list(context))
            adj_b = self._est._adjustment_for(list(sig_b), list(context))
            do_o_x = engine.adjusted_probabilities(
                {outcome: 1}, treatments, adj_t, context=context
            )
            do_o_xp = engine.adjusted_probabilities(
                {outcome: 1}, baselines, adj_b, context=context
            )
            joints = engine.probabilities(
                [{outcome: 1, **t} for t in treatments]
                + [{outcome: 1, **b} for b in baselines]
                + [{outcome: 0, **t} for t in treatments]
                + [{outcome: 0, **b} for b in baselines],
                [context] * (4 * len(indices)),
                default=0.0,
            ).reshape(4, len(indices))
            p_o_x, p_o_xp, p_no_x, p_no_xp = joints
            for j, i in enumerate(indices):
                out[i] = self._assemble(
                    float(do_o_x[j]),
                    float(do_o_xp[j]),
                    float(p_o_x[j]),
                    float(p_o_xp[j]),
                    float(p_no_x[j]),
                    float(p_no_xp[j]),
                )
        return list(out)

    @staticmethod
    def _assemble(
        do_o_x: float,
        do_o_xp: float,
        p_o_x: float,
        p_o_xp: float,
        p_no_x: float,
        p_no_xp: float,
    ) -> ScoreBounds:
        """Fold the six estimated quantities into the three intervals."""
        do_no_x = 1.0 - do_o_x
        do_no_xp = 1.0 - do_o_xp

        if p_o_x > 0:
            nec = _interval(
                (p_o_x + p_o_xp - do_o_xp) / p_o_x,
                (do_no_xp - p_no_xp) / p_o_x,
            )
        else:
            nec = (0.0, 1.0)

        if p_no_xp > 0:
            suf = _interval(
                (p_no_x + p_no_xp - do_no_x) / p_no_xp,
                (do_o_x - p_o_x) / p_no_xp,
            )
        else:
            suf = (0.0, 1.0)

        nesuf = _interval(do_o_x - do_o_xp, min(do_o_x, do_no_xp))
        return ScoreBounds(necessity=nec, sufficiency=suf, necessity_sufficiency=nesuf)
