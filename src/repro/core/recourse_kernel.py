"""Pure signature-solving kernel behind :class:`RecourseSolver`.

One function, :func:`solve_signature`, solves the recourse program of a
single ``(current codes, context)`` signature given only plain data: a
:class:`SignatureSkeleton`, the signature's base log-odds, the target
``alpha`` and the mode.  It solves once, at Eq. 28's threshold
``Pr(o|a,k) + alpha * Pr(o'|a,k)``, and re-scores the solution with the
same logit it was solved against; a solution whose sufficiency falls
short of ``alpha`` reads as unreachable (rounding can make it, and so
can an ``alpha`` whose threshold is clamped at ``1 - 1e-6``).  It
holds no table, estimator or solver state, and it sees no other
signature, so an answer depends only on its own program:
:meth:`RecourseSolver.solve_batch` calls it once per unsolved signature,
whatever the batch or the requests solved before it.

:func:`exact_step` solves one threshold's 0-1 program exactly, with the
cached parametric-dual bounds of :mod:`repro.opt.parametric`: a greedy
cover certified against the LP root bound handles most programs without
any search, and the rest run a depth-first exact search, seeded with
the greedy cost, whose node bounds are vectorised grid evaluations.  It
is the one exact solver for recourse programs: :func:`solve_signature`
calls it once per signature, and the LinearIP baseline
(:class:`~repro.xai.linear_ip.LinearIPRecourse`) calls it on its own
program.  Its budget is the constant :data:`NODE_LIMIT`, shared by both
callers.  The scipy/HiGHS MILP that the property suite checks it
against is ``tests/oracles.py``'s ``milp_exact_step``, a drop-in for
:func:`exact_step`.

``mode="anytime"`` skips the exact search entirely and returns the
greedy cover together with a *certified* optimality gap: the reported
``gap`` is ``greedy cost - LP root bound``, and since the exact cost is
sandwiched between that LP bound and the greedy cost, the true
exact-vs-anytime difference can never exceed it.
"""

from __future__ import annotations

import numpy as np

from repro.estimation.logit import logit
from repro.opt.parametric import (
    CERTIFICATE_TOL,
    SignatureSkeleton,
    greedy_cover,
    selection_stats,
    selection_to_codes,
    solve_exact,
)
from repro.utils.exceptions import RecourseInfeasibleError

MODES = ("exact", "anytime")

#: node budget of one exact search; past it the program is infeasible
NODE_LIMIT = 200_000


def _sigmoid(z: float) -> float:
    return float(1.0 / (1.0 + np.exp(-z)))


def solve_signature(
    skeleton: SignatureSkeleton,
    base_logit: float,
    alpha: float,
    mode: str = "exact",
) -> dict:
    """One solve at Eq. 28's threshold for one signature; returns a plain dict.

    Result statuses: ``"empty"`` (base probability already meets
    ``alpha``), ``"ok"`` (solved; ``chosen`` maps attribute to new
    code), ``"infeasible"`` (with a ``reason`` of ``"no_candidates"``
    or ``"unreachable"``: no action covers the threshold, the node
    budget ran out, or the re-scored sufficiency misses ``alpha``).
    """
    base_prob = _sigmoid(base_logit)
    stats = {"nodes": 0, "certified": 0}
    if base_prob >= alpha:
        return {"status": "empty", "probability": base_prob, "stats": stats}
    if skeleton.n_variables == 0:
        return {
            "status": "infeasible",
            "reason": "no_candidates",
            "probability": base_prob,
            "stats": stats,
        }
    threshold = min(base_prob + alpha * (1.0 - base_prob), 1.0 - 1e-6)
    needed = logit(threshold) - base_logit
    unreachable = {
        "status": "infeasible",
        "reason": "unreachable",
        "probability": base_prob,
        "stats": stats,
    }
    try:
        if mode == "anytime":
            # Greedy rounding against the parametric LP bound: the point
            # of anytime mode is to avoid the search entirely.
            lp_bound = skeleton.lp_bound(needed)
            covered = greedy_cover(skeleton, needed)
            solved = None if covered is None else _action(skeleton, *covered)
        else:
            solved = exact_step(skeleton, needed, stats)
    except RecourseInfeasibleError:
        # Node budget exhausted.
        return unreachable
    if solved is None:
        return unreachable
    chosen, objective, gain_sum = solved
    achieved = _sigmoid(base_logit + gain_sum)
    if not chosen:
        sufficiency = base_prob
    elif base_prob >= 1.0:
        sufficiency = 1.0
    else:
        sufficiency = max(
            0.0, min(1.0, (achieved - base_prob) / (1.0 - base_prob))
        )
    if sufficiency < alpha - 1e-9:
        return unreachable
    gap = 0.0
    if mode == "anytime" and np.isfinite(lp_bound):
        gap = max(0.0, float(objective) - float(lp_bound))
    return {
        "status": "ok",
        "chosen": chosen,
        "objective": float(objective),
        "threshold": threshold,
        "sufficiency": sufficiency,
        "probability": achieved,
        "gap": gap,
        "stats": stats,
    }


def _action(
    skeleton: SignatureSkeleton, selection: np.ndarray, cost: float
) -> tuple[dict[str, int], float, float]:
    """(``{attribute: new code}``, cost, linearised gain) of a selection."""
    return (
        selection_to_codes(skeleton, selection),
        cost,
        selection_stats(skeleton, selection)[1],
    )


def exact_step(
    skeleton: SignatureSkeleton,
    needed: float,
    stats: dict | None = None,
) -> tuple[dict[str, int], float, float] | None:
    """Optimal action covering ``needed``, or ``None`` when none covers it.

    Returns ``({attribute: new code}, cost, linearised gain)``.  The
    greedy cover is returned as is when it meets the LP root bound
    (certified optimal); otherwise it seeds the exact search.  A set
    covers when its gain comes within ``FEASIBILITY_TOL`` of ``needed``,
    while the LP bounds ask for all of ``needed``: the cost returned
    lies between the cheapest set covering with that slack and the
    cheapest covering without it (the two agree unless a set's gain
    falls inside the slack).  Raises :class:`RecourseInfeasibleError`
    when the search exceeds :data:`NODE_LIMIT` nodes.  ``stats``, when
    given, counts the certificates (``"certified"``) and search nodes
    (``"nodes"``).
    """
    lp_root = skeleton.lp_bound(needed)
    if not np.isfinite(lp_root):
        return None
    covered = greedy_cover(skeleton, needed)
    if covered is None:
        return None
    selection, greedy_cost = covered
    if greedy_cost <= lp_root + CERTIFICATE_TOL:
        if stats is not None:
            stats["certified"] += 1
        return _action(skeleton, selection, greedy_cost)
    exact_sel, objective, nodes = solve_exact(
        skeleton, needed, greedy_cost, node_limit=NODE_LIMIT
    )
    if stats is not None:
        stats["nodes"] += nodes
    if exact_sel is None:  # pragma: no cover - defensive; seed is feasible
        return _action(skeleton, selection, greedy_cost)
    return _action(skeleton, exact_sel, objective)


__all__ = ["MODES", "NODE_LIMIT", "exact_step", "solve_signature"]
