"""The recourse kernel: every unsolved signature of a batch as one array program.

:func:`solve_signature` is the batch entry behind
:meth:`RecourseSolver.solve_batch`.  It takes plain data: a
:class:`~repro.opt.parametric.SkeletonPack`, each signature's skeleton
row and base log-odds, the target ``alpha`` and the mode, and returns a
:class:`SignatureAnswers` of arrays.  Each signature is solved once, at
Eq. 28's threshold ``Pr(o|a,k) + alpha * Pr(o'|a,k)``, and its solution
re-scored with the same logit; a solution whose sufficiency falls short
of ``alpha`` reads as unreachable (rounding can make it, and so can an
``alpha`` whose threshold is clamped at ``1 - 1e-6``).  The kernel holds
no table, estimator or solver state, and no state crosses between
signatures, so a signature's answer is the same whichever batch, or
which earlier request, solves it.

:func:`frontier_search` is the exact search.  It advances all of a
batch's signatures together, one attribute rank per level: each level
ends the nodes that cover, bounds the rest with one grid evaluation for
the whole frontier (the parametric dual of :mod:`repro.opt.parametric`,
at ``remaining - FEASIBILITY_TOL``), prunes a node only when its bound
passes its own signature's incumbent by more than its rounding margin
(ties are kept), and expands the survivors into the next rank's
options.  A signature's first incumbent bound is the cost of its LP
rounding (:attr:`SignatureSkeleton.seed_cost`), which only prunes.

**The tie rule.**  The answer is the cheapest action set whose gain
covers ``needed`` within ``FEASIBILITY_TOL`` -- gains subtracted from
``needed`` and costs added up rank by rank -- and among equally cheap
sets the first in depth-first order: ranks by descending best gain,
each rank's options (the no-op among them) by descending gain, then
ascending cost, then code, and a branch that covers with no
negative-cost option below it ends there.  So the choice among tied
optima is part of the answer, not an accident of the search: the
depth-first recursion that was the search before, kept as the oracle
``tests/oracles.py::dfs_exact_step``, returns the same set bit for bit.

**Budgets.**  A signature whose search would pass :data:`NODE_LIMIT`
nodes reads unreachable, and the rest of its batch is answered.  When a
level would create more than :data:`FRONTIER_CAP` nodes, its signatures
are split into two halves searched one after the other, and a bound
evaluation holds at most :data:`BOUND_CELLS` grid cells at once, so
memory follows the caps rather than the batch.  A signature's own
search, and so its node count, is the same either way.  The request
deadline is checked once per level.

:func:`exact_step` solves one program through the same search; the
LinearIP baseline (:class:`~repro.xai.linear_ip.LinearIPRecourse`)
calls it.  The scipy/HiGHS MILP the tests hold the kernel to is
``tests/oracles.py``'s ``milp_frontier_search``, a drop-in for
:func:`frontier_search`.

``mode="anytime"`` skips the exact search and returns the greedy cover
(:func:`~repro.opt.parametric.greedy_cover`) with a *certified*
optimality gap: ``gap`` is ``greedy cost - LP root bound``, and since
the exact cost lies between the two, the true difference never exceeds
it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.opt.parametric import (
    FEASIBILITY_TOL,
    SignatureSkeleton,
    SkeletonPack,
    greedy_cover,
    prune_margin,
    selection_stats,
    selection_to_codes,
)
from repro.utils import deadline as _deadline
from repro.utils.exceptions import RecourseInfeasibleError

MODES = ("exact", "anytime")

#: node budget of one signature's search; past it the program is infeasible
NODE_LIMIT = 200_000

#: most nodes one level creates before its signatures are split in two
FRONTIER_CAP = 1 << 15

#: most grid cells one bound evaluation holds at once
BOUND_CELLS = 1 << 14

#: answer statuses of :class:`SignatureAnswers`
OK, EMPTY, NO_CANDIDATES, UNREACHABLE = range(4)


class SearchResult(NamedTuple):
    """Per-signature outcome of :func:`frontier_search`.

    ``selection[i, rank]`` is the chosen option index of each rank, -1
    past the rank where the chosen branch ended; ``found`` is false when
    no set covers or the node budget ran out (``exhausted``).
    """

    selection: np.ndarray
    objective: np.ndarray
    found: np.ndarray
    nodes: np.ndarray
    exhausted: np.ndarray


class SignatureAnswers(NamedTuple):
    """Per-signature answers of :func:`solve_signature`.

    ``status`` is :data:`OK` (solved: ``selection``, ``objective``,
    ``sufficiency``, ``probability``, ``threshold`` and ``gap`` hold),
    :data:`EMPTY` (the base probability, in ``probability``, already
    meets ``alpha``), :data:`NO_CANDIDATES` (no actionable attribute has
    another value) or :data:`UNREACHABLE` (no action covers the
    threshold, the node budget ran out, or the re-scored sufficiency
    misses ``alpha``).  ``nodes`` counts each signature's search nodes.
    """

    status: np.ndarray
    selection: np.ndarray
    objective: np.ndarray
    threshold: np.ndarray
    sufficiency: np.ndarray
    probability: np.ndarray
    gap: np.ndarray
    nodes: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def solve_signature(
    pack: SkeletonPack,
    rows: Sequence[int],
    base_logits: Sequence[float],
    alpha: float,
    mode: str = "exact",
) -> SignatureAnswers:
    """One solve at Eq. 28's threshold for each signature; see the module."""
    rows = np.asarray(rows, dtype=np.int64)
    base_logits = np.asarray(base_logits, dtype=np.float64)
    count, n = len(rows), pack.n_ranks
    base_prob = _sigmoid(base_logits)
    threshold = np.minimum(base_prob + alpha * (1.0 - base_prob), 1.0 - 1e-6)
    clipped = np.minimum(np.maximum(threshold, 1e-6), 1 - 1e-6)
    needed = np.log(clipped / (1 - clipped)) - base_logits
    status = np.full(count, UNREACHABLE, dtype=np.int8)
    selection = np.full((count, n), -1, dtype=np.int64)
    objective = np.zeros(count)
    sufficiency = np.zeros(count)
    probability = base_prob.copy()
    gap = np.zeros(count)
    nodes = np.zeros(count, dtype=np.int64)
    empty = base_prob >= alpha
    stuck = ~empty & (pack.n_options[rows].sum(axis=1) == n)
    status[empty] = EMPTY
    status[stuck] = NO_CANDIDATES
    at = np.flatnonzero(~empty & ~stuck)
    answers = SignatureAnswers(
        status, selection, objective, threshold, sufficiency, probability, gap, nodes
    )
    if not len(at):
        return answers
    if mode == "anytime":
        picked, cost, found, bound = _anytime(pack, rows[at], needed[at])
        gap[at] = np.where(np.isfinite(bound), np.maximum(0.0, cost - bound), 0.0)
    else:
        # Looked up at call time, so a test can swap in an oracle.
        picked, cost, found, used, _ = frontier_search(pack, rows[at], needed[at])
        nodes[at] = used
    gains = pack.gains[rows[at]]
    gain = np.zeros(len(at))
    for rank in range(n):
        j = picked[:, rank]
        gain = gain + np.where(j >= 0, gains[np.arange(len(at)), rank, j], 0.0)
    achieved = _sigmoid(base_logits[at] + gain)
    base = base_prob[at]
    moved = ((picked >= 0) & (picked != pack.noop[rows[at]])).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lift = np.clip((achieved - base) / (1.0 - base), 0.0, 1.0)
    reached = np.where(moved, np.where(base >= 1.0, 1.0, lift), base)
    status[at[found & (reached >= alpha - 1e-9)]] = OK
    selection[at] = picked
    objective[at] = cost
    sufficiency[at] = reached
    probability[at] = achieved
    return answers


def _anytime(pack: SkeletonPack, rows: np.ndarray, needed: np.ndarray):
    """Greedy covers and LP root bounds, one signature at a time."""
    selection = np.full((len(rows), pack.n_ranks), -1, dtype=np.int64)
    cost = np.zeros(len(rows))
    found = np.zeros(len(rows), dtype=bool)
    bound = np.zeros(len(rows))
    for i, (row, need) in enumerate(zip(rows, needed)):
        _deadline.check("recourse anytime solve")
        skeleton = pack.skeletons[row]
        bound[i] = skeleton.lp_bound(need)
        covered = greedy_cover(skeleton, need)
        if covered is not None:
            selection[i], cost[i], found[i] = covered[0], covered[1], True
    return selection, cost, found, bound


def frontier_search(
    pack: SkeletonPack, rows: Sequence[int], needed: Sequence[float]
) -> SearchResult:
    """The exact optimum, under the module's tie rule, of each program.

    Program ``i`` is pack row ``rows[i]`` with need ``needed[i]``.  The
    frontier is a stack of blocks; a block's nodes sit on one level, in
    signature order and, within a signature, in depth-first order, which
    is what lets a level pick the first of its equally cheap sets.
    """
    rows = np.asarray(rows, dtype=np.int64)
    needed = np.asarray(needed, dtype=np.float64)
    count, n = len(rows), pack.n_ranks
    limit = NODE_LIMIT
    selection = np.full((count, n), -1, dtype=np.int64)
    objective = np.full(count, np.inf)
    found = np.zeros(count, dtype=bool)
    nodes = np.ones(count, dtype=np.int64)
    exhausted = np.zeros(count, dtype=bool)
    # Prune-only incumbent bounds: each signature's LP-rounding cost.
    covers = pack.seed_gain[rows] >= needed[:, None]
    first = covers.argmax(axis=1)
    best = np.where(covers.any(axis=1), pack.seed_cost[rows, first], np.inf)
    stack = [
        (0, np.arange(count), np.zeros(count), needed.copy(), selection.copy())
    ]
    while stack:
        level, sig, cost, rem, path = stack.pop()
        while len(sig):
            _deadline.check("recourse search level")
            sk = rows[sig]
            covered = rem <= FEASIBILITY_TOL
            stop = covered
            if level < n:
                stop = covered & (pack.suffix_negcost[sk, level] == 0.0)
            if stop.any():
                _record(
                    sig[stop], cost[stop], path[stop], selection, objective, found, best
                )
            if level == n:
                break
            r = rem - FEASIBILITY_TOL
            bound, y = _bounds(pack, sk, level, r)
            margin = prune_margin(
                cost, best[sig], r, y, pack.cost_scale[sk], pack.gain_scale[sk]
            )
            live = (
                ~stop
                & (r <= pack.suffix_gain[sk, level])
                & ~(cost + bound > best[sig] + margin)
            )
            fan = pack.n_options[sk, level] * live
            per_sig = np.bincount(sig, weights=fan, minlength=count).astype(np.int64)
            over = nodes + per_sig > limit
            if over.any():
                exhausted |= over
                live &= ~over[sig]
                fan = fan * live
                per_sig[over] = 0
            sig, cost, rem, path, sk, fan = (
                a[live] for a in (sig, cost, rem, path, sk, fan)
            )
            total = int(fan.sum())
            if total > FRONTIER_CAP and sig[0] != sig[-1]:
                distinct = np.unique(sig)
                cut = int(np.searchsorted(sig, distinct[len(distinct) // 2]))
                stack.append((level, sig[cut:], cost[cut:], rem[cut:], path[cut:]))
                sig, cost, rem, path = sig[:cut], cost[:cut], rem[:cut], path[:cut]
                continue
            nodes += per_sig
            parent = np.repeat(np.arange(len(sig)), fan)
            option = np.arange(total) - np.repeat(np.cumsum(fan) - fan, fan)
            sk = sk[parent]
            sig = sig[parent]
            cost = cost[parent] + pack.costs[sk, level, option]
            rem = rem[parent] - pack.gains[sk, level, option]
            path = path[parent]
            path[:, level] = option
            level += 1
    found &= ~exhausted
    return SearchResult(selection, objective, found, nodes, exhausted)


def _bounds(
    pack: SkeletonPack, sk: np.ndarray, level: int, remaining: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid bound of each node over ranks ``level..`` and where it peaks."""
    step = max(1, BOUND_CELLS // pack.grid.shape[1])
    bound = np.empty(len(sk))
    peak = np.empty(len(sk))
    for lo in range(0, len(sk), step):
        part = slice(lo, lo + step)
        values = pack.grid[sk[part]]
        values *= remaining[part, None]
        values -= pack.suffix_h[sk[part], level]
        at = values.argmax(axis=1)
        bound[part] = values[np.arange(len(at)), at]
        peak[part] = pack.grid[sk[part], at]
    return bound, peak


def _record(sig, cost, path, selection, objective, found, best) -> None:
    """Keep, per signature, the cheapest covering set and the first of equals.

    ``sig``, ``cost`` and ``path`` are one level's covering nodes, in
    signature then depth-first order; a set found on an earlier level
    loses a tie only to a set that comes before it depth-first.
    """
    if not len(sig):
        return
    order = np.lexsort((np.arange(len(sig)), cost, sig))
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = sig[order[1:]] != sig[order[:-1]]
    pick = order[heads]
    sig, cost, path = sig[pick], cost[pick], path[pick]
    better = ~found[sig] | (cost < objective[sig])
    tied = np.flatnonzero(~better & (cost == objective[sig]))
    if len(tied):
        better[tied] = _precedes(path[tied], selection[sig[tied]])
    sig, cost = sig[better], cost[better]
    selection[sig] = path[better]
    objective[sig] = cost
    found[sig] = True
    best[sig] = np.minimum(best[sig], cost)


def _precedes(paths: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Whether each path comes before the other one depth-first.

    Neither of two distinct recorded paths extends the other (a branch
    that ends is not expanded), so they differ before either ends, and
    the first option index where they differ orders them.
    """
    differs = paths != others
    if not differs.size:
        return np.zeros(len(paths), dtype=bool)
    rows, first = np.arange(len(paths)), differs.argmax(axis=1)
    return differs[rows, first] & (paths[rows, first] < others[rows, first])


def exact_step(
    skeleton: SignatureSkeleton,
    needed: float,
    stats: dict | None = None,
) -> tuple[dict[str, int], float, float] | None:
    """Optimal action covering ``needed``, or ``None`` when none covers it.

    Returns ``({attribute: new code}, cost, linearised gain)``: the set
    the module's tie rule names, so its cost equals the least cost of
    any set covering ``needed`` within ``FEASIBILITY_TOL``, and its gain
    is summed in rank order.  Raises :class:`RecourseInfeasibleError`
    when the search passes :data:`NODE_LIMIT` nodes.  ``stats``, when
    given, counts the search nodes (``"nodes"``).
    """
    result = frontier_search(SkeletonPack.of([skeleton]), [0], [needed])
    if stats is not None:
        stats["nodes"] += int(result.nodes[0])
    if result.exhausted[0]:
        raise RecourseInfeasibleError(
            f"signature search node limit ({NODE_LIMIT}) exceeded"
        )
    if not result.found[0]:
        return None
    selection = result.selection[0]
    return (
        selection_to_codes(skeleton, selection),
        float(result.objective[0]),
        selection_stats(skeleton, selection)[1],
    )


__all__ = [
    "MODES",
    "NODE_LIMIT",
    "FRONTIER_CAP",
    "SearchResult",
    "SignatureAnswers",
    "exact_step",
    "frontier_search",
    "solve_signature",
]
