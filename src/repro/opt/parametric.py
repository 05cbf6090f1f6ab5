"""Parametric root bounds and exact search for recourse signature programs.

The recourse IP for one ``(current codes, context)`` signature is a
multiple-choice covering program

    min  sum_i c_i x_i
    s.t. sum_i g_i x_i >= needed
         sum_{i in attribute a} x_i <= 1      for each actionable a
         x in {0, 1}

whose structure (costs ``c``, gains ``g``, attribute grouping) depends
only on the *skeleton* — the current actionable codes — while ``needed``
varies per signature.  Dualising the covering row
gives a one-dimensional concave dual

    L(y) = needed * y - sum_a h_a(y),
    h_a(y) = max(0, max_i (g_i * y - c_i)),      y >= 0,

whose maximum over ``y`` equals the LP root-relaxation bound exactly
(LPs have no Lagrangian duality gap, whichever constraints are
dualised).  Every ``h_a`` is a piecewise-linear maximum of lines fixed
by the skeleton alone, so the candidate maximisers — the breakpoint grid
— are computed once per skeleton; after that, every signature's root
bound *and* every branch-and-bound node bound is a single vectorised
evaluation with no LP solver call.  That is what lets a cohort audit
solve hundreds of near-identical signature programs at microseconds
each instead of paying a cold MILP setup per signature.

Everything here operates on plain arrays (no solver state, no table
handles), so the same functions back the exact search and the anytime
certificates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.exceptions import RecourseInfeasibleError

#: slack used when testing whether an action set covers ``needed``.
FEASIBILITY_TOL = 1e-9

#: strict-improvement threshold for recording a new incumbent.
_RECORD_EPS = 1e-12

#: seeding slack: the seed incumbent bound (the greedy cover's cost) is
#: loosened by this before the search starts, so the search still
#: visits (and returns) its own canonical optimal solution when the
#: greedy cover ties the optimum.
SEED_EPS = 1e-9

#: certificate slack: a heuristic solution within this of the LP root
#: bound is accepted as optimal without running the exact search.
CERTIFICATE_TOL = 2e-10

#: largest breakpoint kept on the dual grid.  Lines meet beyond it only
#: when two options' gains differ by less than ~1e-150 of their cost
#: difference; evaluating ``needed * y`` there can overflow into ``nan``
#: (an infeasible verdict on a coverable program), while any subset of
#: the grid still yields a valid lower bound.
GRID_LIMIT = 1e150


class SignatureSkeleton:
    """Solve-ready structure for one current-code tuple.

    Parameters are parallel per-attribute sequences: candidate codes
    (excluding the current code), their costs, and their linearised
    log-odds gains.  The constructor derives everything the bound
    evaluations and the exact search need:

    * the breakpoint grid of the 1-D dual and per-attribute ``h_a``
      rows evaluated on it (suffix-summed in search order),
    * suffix sums of the best achievable gain (exact feasibility test),
    * per-attribute option orderings for deterministic branching,
    * a cached greedy preference order.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        current: Sequence[int],
        codes: Sequence[Sequence[int]],
        costs: Sequence[Sequence[float]],
        gains: Sequence[Sequence[float]],
    ):
        self.attributes = list(attributes)
        self.current = tuple(int(c) for c in current)
        self.codes = [np.asarray(c, dtype=np.int64) for c in codes]
        self.costs = [np.asarray(c, dtype=np.float64) for c in costs]
        self.gains = [np.asarray(g, dtype=np.float64) for g in gains]
        n = len(self.attributes)
        if not (len(self.codes) == len(self.costs) == len(self.gains) == n):
            raise ValueError("per-attribute arrays must align with attributes")

        self.n_variables = int(sum(len(c) for c in self.codes))
        # One exclusivity row per attribute with candidates + the
        # sufficiency row.
        self.n_constraints = int(sum(len(c) > 0 for c in self.codes)) + 1

        best_gain = np.array(
            [float(g.max()) if len(g) else 0.0 for g in self.gains]
        )
        # Search order: most influential attribute first (descending best
        # gain, stable) — tightens remaining-needed fastest.
        self.order = np.argsort(-best_gain, kind="stable")

        # Per-rank option tables.  Each rank's options include the no-op
        # (gain 0, cost 0, code = current) and are sorted by descending
        # gain, then ascending cost, then code — the deterministic
        # branching order the bit-identity guarantees rest on.
        self.opt_codes: list[np.ndarray] = []
        self.opt_costs: list[np.ndarray] = []
        self.opt_gains: list[np.ndarray] = []
        grid_points = [0.0]
        h_rows = np.zeros((n, 0))
        per_attr_lines = []
        for rank, a in enumerate(self.order):
            codes_a = np.concatenate([self.codes[a], [self.current[a]]])
            costs_a = np.concatenate([self.costs[a], [0.0]])
            gains_a = np.concatenate([self.gains[a], [0.0]])
            key = np.lexsort((codes_a, costs_a, -gains_a))
            self.opt_codes.append(codes_a[key])
            self.opt_costs.append(costs_a[key])
            self.opt_gains.append(gains_a[key])
            # Dual lines g_i*y - c_i (the no-op contributes the 0 line).
            slopes, intercepts = gains_a, -costs_a
            per_attr_lines.append((slopes, intercepts))
            # Candidate breakpoints: all pairwise intersections with
            # positive y.  A superset of the true envelope breakpoints
            # is harmless (h is evaluated directly on the grid), a
            # missing one would leave the bound valid but below the LP
            # value — so prefer the exhaustive set, up to GRID_LIMIT.
            ds = slopes[:, None] - slopes[None, :]
            db = intercepts[None, :] - intercepts[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                ys = db / ds
            ys = ys[(ys > 0.0) & (ys < GRID_LIMIT)]
            if len(ys):
                grid_points.append(np.unique(ys))

        self.grid = np.unique(np.concatenate([np.atleast_1d(p) for p in grid_points]))
        h_rows = np.zeros((n, len(self.grid)))
        for rank, (slopes, intercepts) in enumerate(per_attr_lines):
            h_rows[rank] = np.max(
                slopes[:, None] * self.grid[None, :] + intercepts[:, None], axis=0
            )
        # suffix_h[k] = sum of h rows for ranks k.. (row n is all zeros).
        self.suffix_h = np.zeros((n + 1, len(self.grid)))
        self.suffix_h[:n] = np.cumsum(h_rows[::-1], axis=0)[::-1]
        # suffix_gain[k]: best achievable gain from ranks k.. — the
        # exact integral (and LP) feasibility frontier.
        positive_best = np.maximum(best_gain[self.order], 0.0)
        self.suffix_gain = np.zeros(n + 1)
        self.suffix_gain[:n] = np.cumsum(positive_best[::-1])[::-1]
        # suffix_negcost[k]: cost of taking every strictly negative-cost
        # option from ranks k.. — 0 for ordinary non-negative pricing.
        min_cost = np.array(
            [min(0.0, float(c.min())) if len(c) else 0.0 for c in self.costs]
        )
        self.suffix_negcost = np.zeros(n + 1)
        self.suffix_negcost[:n] = np.cumsum(min_cost[self.order][::-1])[::-1]

        # Greedy preference order over (rank, option) pairs with
        # positive gain: free/negative-cost options first (by descending
        # gain), then by descending gain/cost ratio; ties resolve by
        # rank then option index.
        entries = []
        for rank in range(n):
            for j in range(len(self.opt_gains[rank])):
                gain = float(self.opt_gains[rank][j])
                cost = float(self.opt_costs[rank][j])
                if gain <= 0.0:
                    continue
                if cost <= FEASIBILITY_TOL:
                    entries.append((0, -gain, rank, j))
                else:
                    entries.append((1, -gain / cost, rank, j))
        entries.sort()
        self.greedy_order = [(rank, j) for _, _, rank, j in entries]
        # Cheapest strictly negative-cost option per rank (or -1).
        self.negcost_option = np.full(n, -1, dtype=np.int64)
        for rank in range(n):
            costs_r = self.opt_costs[rank]
            if len(costs_r) and float(costs_r.min()) < 0.0:
                self.negcost_option[rank] = int(np.argmin(costs_r))

    # -- bounds ------------------------------------------------------------

    def lp_bound(self, needed: float, level: int = 0) -> float:
        """LP relaxation bound over the ranks ``level..``.

        Returns ``inf`` when not even the per-attribute best gains reach
        ``needed`` — which is also exact *integral* infeasibility, since
        picking the best gain per attribute is a feasible 0-1 point.
        """
        if needed > self.suffix_gain[level] + FEASIBILITY_TOL:
            return np.inf
        return float(np.max(needed * self.grid - self.suffix_h[level]))


def greedy_cover(
    skeleton: SignatureSkeleton, needed: float
) -> tuple[np.ndarray, float] | None:
    """Deterministic gain/cost greedy covering of ``needed``.

    Returns ``(selection, cost)`` where ``selection[rank]`` is an option
    index (or -1 for no action), or ``None`` when no action set can
    cover ``needed`` at all.  Used both as the anytime-mode solution and
    as the seed incumbent for the exact search.
    """
    n = len(skeleton.attributes)
    selection = np.full(n, -1, dtype=np.int64)
    gain_sum = 0.0
    if needed > skeleton.suffix_gain[0] + FEASIBILITY_TOL:
        return None
    if needed > FEASIBILITY_TOL:
        for rank, j in skeleton.greedy_order:
            if selection[rank] != -1:
                continue
            selection[rank] = j
            gain_sum += float(skeleton.opt_gains[rank][j])
            if gain_sum >= needed - FEASIBILITY_TOL:
                break
        if gain_sum < needed - FEASIBILITY_TOL:
            # Ratio order stalled: fall back to the per-attribute best
            # gain, which covers whenever covering is possible.
            selection.fill(-1)
            gain_sum = 0.0
            for rank in range(n):
                gains_r = skeleton.opt_gains[rank]
                if len(gains_r) and float(gains_r[0]) > 0.0:
                    selection[rank] = 0  # options sorted by descending gain
                    gain_sum += float(gains_r[0])
            if gain_sum < needed - FEASIBILITY_TOL:
                return None
    # Trim: drop the costliest redundant actions first.
    chosen = [
        (float(skeleton.opt_costs[r][selection[r]]), r)
        for r in range(n)
        if selection[r] != -1
    ]
    for cost_r, rank in sorted(chosen, key=lambda t: (-t[0], t[1])):
        gain_r = float(skeleton.opt_gains[rank][selection[rank]])
        if gain_sum - gain_r >= needed - FEASIBILITY_TOL and cost_r >= 0.0:
            selection[rank] = -1
            gain_sum -= gain_r
    # Attach strictly negative-cost options that do not break coverage.
    for rank in range(n):
        j = int(skeleton.negcost_option[rank])
        if j >= 0 and selection[rank] == -1:
            gain_j = float(skeleton.opt_gains[rank][j])
            if gain_sum + gain_j >= needed - FEASIBILITY_TOL:
                selection[rank] = j
                gain_sum += gain_j
    cost = float(
        sum(skeleton.opt_costs[r][selection[r]] for r in range(n) if selection[r] != -1)
    )
    return selection, cost


def solve_exact(
    skeleton: SignatureSkeleton,
    needed: float,
    seed_cost: float,
    node_limit: int | None = None,
) -> tuple[np.ndarray | None, float, int]:
    """Exact depth-first search with parametric-dual node bounds.

    ``seed_cost`` is the best known feasible cost (the greedy cover's);
    it only tightens pruning.  The search still returns its own
    canonical optimal selection (see :data:`SEED_EPS`).

    Returns ``(selection, objective, nodes)``; ``selection`` is ``None``
    only if no solution strictly below ``seed_cost + SEED_EPS`` was
    recorded (the caller then falls back to the seed's own selection).
    """
    n = len(skeleton.attributes)
    best = seed_cost + SEED_EPS
    best_sel: np.ndarray | None = None
    selection = np.full(n, -1, dtype=np.int64)
    nodes = 0

    def recurse(k: int, cost: float, remaining: float) -> None:
        nonlocal best, best_sel, nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise RecourseInfeasibleError(
                f"signature search node limit ({node_limit}) exceeded"
            )
        if remaining <= FEASIBILITY_TOL and skeleton.suffix_negcost[k] == 0.0:
            # Covered, and no negative-cost option below could reduce
            # the objective: stopping here is the optimal completion.
            if cost < best - _RECORD_EPS:
                best = cost
                best_sel = selection.copy()
                best_sel[k:] = -1
            return
        if k == n:
            if remaining <= FEASIBILITY_TOL and cost < best - _RECORD_EPS:
                best = cost
                best_sel = selection.copy()
            return
        bound = skeleton.lp_bound(remaining, k)
        if cost + bound >= best - _RECORD_EPS:
            return
        gains_k = skeleton.opt_gains[k]
        costs_k = skeleton.opt_costs[k]
        for j in range(len(gains_k)):
            selection[k] = j
            recurse(k + 1, cost + float(costs_k[j]), remaining - float(gains_k[j]))
        selection[k] = -1

    recurse(0, 0.0, needed)
    if best_sel is None:
        return None, seed_cost, nodes
    return best_sel, float(best), nodes


def selection_to_codes(
    skeleton: SignatureSkeleton, selection: np.ndarray
) -> dict[str, int]:
    """``{attribute: new code}`` for the non-trivial entries of a selection."""
    chosen: dict[str, int] = {}
    for rank, j in enumerate(selection):
        if j < 0:
            continue
        a = int(skeleton.order[rank])
        code = int(skeleton.opt_codes[rank][j])
        if code != skeleton.current[a]:
            chosen[skeleton.attributes[a]] = code
    return chosen


def selection_stats(
    skeleton: SignatureSkeleton, selection: np.ndarray
) -> tuple[float, float]:
    """(total cost, total gain) of a selection."""
    cost = 0.0
    gain = 0.0
    for rank, j in enumerate(selection):
        if j >= 0:
            cost += float(skeleton.opt_costs[rank][j])
            gain += float(skeleton.opt_gains[rank][j])
    return cost, gain
