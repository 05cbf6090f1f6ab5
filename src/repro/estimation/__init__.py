"""Empirical probability estimation from historical data.

LEWIS treats the decision algorithm as a black box and estimates every
probability in Propositions 4.1–4.2 from its input-output table.  This
subpackage provides the vectorized contingency-table query engine
(:mod:`repro.estimation.engine`), which answers conditional frequencies
and backdoor-adjustment sums from cached count tensors, and the one
count-fitted one-hot logit of the decision (:mod:`repro.estimation.logit`):
its log-odds linearise the recourse sufficiency constraint, and its
subclass :class:`~repro.estimation.outcome_model.OutcomeProbabilityModel`
answers the local scores' ``Pr(o | X, K)``.
"""

from repro.estimation.engine import ContingencyEngine
from repro.estimation.logit import LogitModel

__all__ = [
    "ContingencyEngine",
    "LogitModel",
]
