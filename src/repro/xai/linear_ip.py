"""LinearIP: actionable recourse for linear classifiers (Ustun et al. 2019).

The baseline the paper compares its recourse against (Section 5.4).  A
logistic surrogate (or any linear model over one-hot features) is fit to
the black box's decisions; recourse is then the minimum-cost change of
the actionable attributes that pushes the linear score past the decision
threshold.  Unlike LEWIS, the constraint bounds the *classifier score*
directly, ignores causal structure entirely, and — as the paper observes
— often fails to return any solution for high success thresholds.

The program is the one LEWIS recourse solves per signature (one new
value or none per actionable attribute, one "gain >= needed" row), so
it is built by :func:`~repro.core.recourse.program_skeleton` and solved
by the same exact step, :func:`~repro.core.recourse_kernel.exact_step`.
Where several action sets tie at the optimal cost, the kernel's written
tie rule picks one, which may differ from what a general MILP solver
(HiGHS, the test oracle) picks; feasibility and cost agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.recourse import (
    CostFn,
    RecourseAction,
    program_skeleton,
    recourse_actions,
    unit_step_cost,
)
from repro.core.recourse_kernel import exact_step
from repro.data.encoding import OneHotEncoder
from repro.data.table import Table
from repro.estimation.logit import logit
from repro.models.linear import LogisticRegression
from repro.opt.parametric import SignatureSkeleton
from repro.utils.exceptions import RecourseInfeasibleError
from repro.utils.validation import check_probability


@dataclass
class LinearIPResult:
    """The baseline's recommended action set."""

    actions: list[RecourseAction]
    total_cost: float
    achieved_probability: float


class LinearIPRecourse:
    """Recourse over a linear surrogate of the black box."""

    def __init__(
        self,
        table: Table,
        positive: np.ndarray,
        actionable: Sequence[str],
        cost_fn: CostFn | None = None,
    ):
        if not actionable:
            raise ValueError("actionable set must not be empty")
        self.actionable = list(actionable)
        self.cost_fn = cost_fn or unit_step_cost
        self._table = table
        self._encoder = OneHotEncoder(drop_first=True).fit(table)
        X = self._encoder.transform(table)
        self._model = LogisticRegression(l2=0.1)
        self._model.fit(X, np.asarray(positive, dtype=int))
        #: per actionable attribute, each code's surrogate coefficient
        #: (0 for the dropped first code)
        self._coefficients = {
            attribute: [
                self._coefficient(attribute, code)
                for code in range(table.column(attribute).cardinality)
            ]
            for attribute in self.actionable
        }

    def _coefficient(self, attribute: str, code: int) -> float:
        if code == 0:
            return 0.0
        block = self._encoder.feature_slice(attribute)
        return float(self._model.coef_[0][block.start + code - 1])

    def _score(self, codes: Mapping[str, int]) -> float:
        row = self._encoder.transform_codes(
            {name: int(codes[name]) for name in self._table.names}
        )
        return float(self._model.decision_function(row.reshape(1, -1))[0])

    def program(
        self, row_codes: Mapping[str, int], success_probability: float = 0.5
    ) -> tuple[SignatureSkeleton, float]:
        """The 0-1 program for one row: its skeleton and the gain ``needed``.

        Each non-current code of an actionable attribute is a variable
        priced by ``cost_fn`` whose gain is its change of the surrogate's
        linear score; a solution must gain at least ``needed``, the
        distance from the row's score to ``logit(success_probability)``.
        """
        check_probability(success_probability, "success_probability")
        skeleton = program_skeleton(
            self._table,
            self.actionable,
            [int(row_codes[a]) for a in self.actionable],
            self.cost_fn,
            self._coefficients,
        )
        return skeleton, logit(success_probability) - self._score(row_codes)

    def solve(
        self,
        row_codes: Mapping[str, int],
        success_probability: float = 0.5,
    ) -> LinearIPResult:
        """Minimum-cost action set reaching the target linear-score threshold.

        Raises :class:`RecourseInfeasibleError` when no assignment of the
        actionable attributes reaches it — the failure mode the paper
        reports for thresholds above 0.8.
        """
        skeleton, needed = self.program(row_codes, success_probability)
        solved = exact_step(skeleton, needed)
        if solved is None:
            raise RecourseInfeasibleError(
                f"no action on {self.actionable} reaches success probability "
                f"{success_probability}"
            )
        chosen, objective, _gain = solved
        achieved = 1.0 / (1.0 + np.exp(-self._score({**dict(row_codes), **chosen})))
        return LinearIPResult(
            actions=recourse_actions(
                self._table,
                self.cost_fn,
                {a: int(row_codes[a]) for a in self.actionable},
                chosen,
            ),
            total_cost=float(objective),
            achieved_probability=float(achieved),
        )
