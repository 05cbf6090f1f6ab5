"""Identifying interventional queries ``Pr(o | do(x), k)`` from data.

With a causal diagram in hand, the backdoor criterion (Eq. 4 of the
paper) turns interventional queries into observational sums:

    Pr(o | do(x), k) = sum_c Pr(o | c, x, k) Pr(c | k)

:class:`BackdoorAdjustment` finds an admissible adjustment set ``C`` in
the diagram; the sum itself is
:meth:`~repro.estimation.engine.ContingencyEngine.adjusted_probabilities`,
which ``Lewis.interventional_probability`` and the point estimators of
Proposition 4.2 call with that set.
"""

from __future__ import annotations

from typing import Sequence

from repro.causal.graph import CausalDiagram
from repro.utils.exceptions import GraphError


class BackdoorAdjustment:
    """Backdoor-criterion adjustment sets for interventional probabilities.

    Parameters
    ----------
    diagram:
        Causal diagram *including* the outcome node (use
        :meth:`CausalDiagram.with_outcome` to extend a feature diagram).
    outcome:
        Name of the outcome node.
    """

    def __init__(self, diagram: CausalDiagram, outcome: str):
        if outcome not in diagram:
            raise GraphError(f"outcome {outcome!r} missing from the diagram")
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
