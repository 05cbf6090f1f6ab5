"""Estimating interventional queries ``Pr(o | do(x), k)`` from data.

With a causal diagram in hand, the backdoor criterion (Eq. 4 of the
paper) turns interventional queries into observational sums:

    Pr(o | do(x), k) = sum_c Pr(o | c, x, k) Pr(c | k)

:class:`BackdoorAdjustment` packages the diagram lookup (find an
admissible adjustment set) together with the empirical sum; it underlies
both the bound computation of Proposition 4.1 and the point estimators of
Proposition 4.2.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.causal.graph import CausalDiagram
from repro.estimation.engine import ContingencyEngine
from repro.utils.exceptions import GraphError


class BackdoorAdjustment:
    """Backdoor-criterion estimation of interventional probabilities.

    Parameters
    ----------
    engine:
        Contingency engine over the black box's input-output table.
    diagram:
        Causal diagram *including* the outcome node (use
        :meth:`CausalDiagram.with_outcome` to extend a feature diagram).
    outcome:
        Name of the outcome column in both diagram and table.
    """

    def __init__(
        self,
        engine: ContingencyEngine,
        diagram: CausalDiagram,
        outcome: str,
    ):
        if outcome not in diagram:
            raise GraphError(f"outcome {outcome!r} missing from the diagram")
        self._engine = engine
        self._diagram = diagram
        self._outcome = outcome
        self._adjustment_cache: dict[tuple, list[str] | None] = {}

    @property
    def diagram(self) -> CausalDiagram:
        """The (outcome-extended) causal diagram."""
        return self._diagram

    def adjustment_set(
        self,
        treatment: Sequence[str],
        context: Sequence[str] = (),
    ) -> list[str] | None:
        """An admissible backdoor set for (treatment, outcome) avoiding context.

        Per Proposition 4.2 the set ``C`` is sought such that ``C ∪ K``
        satisfies the backdoor criterion; the context attributes are
        already conditioned on, so they are excluded from the search and
        the criterion is checked for ``C ∪ K`` jointly.
        """
        key = (tuple(sorted(treatment)), tuple(sorted(context)))
        if key in self._adjustment_cache:
            return self._adjustment_cache[key]
        context = list(context)
        # Search for C such that C ∪ K satisfies backdoor w.r.t. (X, O).
        # Context attributes are excluded from C (they are conditioned on
        # anyway); when the context itself already participates, the
        # criterion for C ∪ K is what matters, so verify the union.
        result = self._diagram.backdoor_set(
            list(treatment), self._outcome, forbidden=context + [self._outcome]
        )
        if result is not None:
            admissible_context = [
                c
                for c in context
                if c not in self._diagram.descendants_of(list(treatment))
            ]
            if not self._diagram.satisfies_backdoor(
                list(treatment), self._outcome, result + admissible_context
            ):
                result = None
        self._adjustment_cache[key] = result
        return result

    def interventional(
        self,
        outcome_code: int,
        treatment: Mapping[str, int],
        context: Mapping[str, int] | None = None,
        adjustment: Sequence[str] | None = None,
    ) -> float:
        """Estimate ``Pr(O = outcome_code | do(treatment), context)``.

        When ``adjustment`` is omitted it is derived from the diagram; if
        no admissible set exists the no-confounding fallback
        ``Pr(o | x, k)`` is used (Section 6 of the paper).
        """
        context = dict(context or {})
        if adjustment is None:
            adjustment = self.adjustment_set(list(treatment), list(context)) or []
        adjustment = [
            a for a in adjustment if a not in treatment and a not in context
        ]
        return float(
            self._engine.adjusted_probabilities(
                {self._outcome: int(outcome_code)},
                [dict(treatment)],
                adjustment,
                context=context,
            )[0]
        )


def interventional_probability(
    engine: ContingencyEngine,
    diagram: CausalDiagram,
    outcome: str,
    outcome_code: int,
    treatment: Mapping[str, int],
    context: Mapping[str, int] | None = None,
) -> float:
    """One-shot convenience wrapper over :class:`BackdoorAdjustment`."""
    return BackdoorAdjustment(engine, diagram, outcome).interventional(
        outcome_code, treatment, context
    )
