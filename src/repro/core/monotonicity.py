"""Monotonicity diagnostics (Proposition 4.2's key assumption).

Proposition 4.2's point estimates require the algorithm to be monotone
relative to the contrasted values: raising ``X`` never flips a positive
decision to negative.  With only observational data the assumption can
be *probed* by checking that ``Pr(o | x, k)`` is non-decreasing in the
attribute's ordinal codes; with the generating SCM in hand the exact
violation measure ``Λ_viol = Pr(o'_{X<-x} | o, x')`` of Section 5.5 is
available through
:meth:`repro.causal.ground_truth.GroundTruthScores.monotonicity_violation`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.data.table import Table


def empirical_monotonicity_violation(
    table: Table,
    positive: np.ndarray,
    attribute: str,
    context: Mapping[str, int] | None = None,
) -> float:
    """Largest observed drop of ``Pr(o | x, k)`` along the value order.

    Returns 0 when the conditional positive rate is non-decreasing in the
    attribute's codes (consistent with monotonicity); positive values
    report the biggest step-down between consecutive supported values —
    an observational symptom of violation, not the exact ``Λ_viol``.
    """
    positive = np.asarray(positive, dtype=bool)
    if len(positive) != len(table):
        raise ValueError("positive vector length must match the table")
    mask = np.ones(len(table), dtype=bool)
    for name, code in (context or {}).items():
        mask &= table.codes(name) == int(code)
    codes = table.codes(attribute)
    card = table.column(attribute).cardinality
    totals = np.bincount(codes[mask], minlength=card)
    positives = np.bincount(codes[mask & positive], minlength=card)
    return monotonicity_from_counts(positives, totals)[0]


def monotonicity_from_counts(
    positives: np.ndarray, totals: np.ndarray
) -> tuple[float, int]:
    """``(worst step-down, violating step count)`` from per-code counts.

    The one arithmetic of the diagnostic:
    :func:`empirical_monotonicity_violation` feeds it counts from a
    table, the streaming monitors from the engine's incrementally
    maintained ``(attribute, outcome)`` count tensor.  The worst step is
    the rate drop between consecutive supported codes, in code order,
    from integer-count divisions.  Additionally counts how many
    consecutive supported steps decrease — the violation counter a
    drift detector watches.
    """
    rates = [
        p / t for p, t in zip(positives.tolist(), totals.tolist()) if t > 0
    ]
    worst, violations = 0.0, 0
    for prev, nxt in zip(rates[:-1], rates[1:]):
        drop = prev - nxt
        if drop > 0:
            violations += 1
            if drop > worst:
                worst = drop
    return float(worst), violations
