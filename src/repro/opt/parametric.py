"""Parametric bounds and packed arrays for recourse signature programs.

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
bound *and* every search node's bound is a grid evaluation with no LP
solver call.

:class:`SignatureSkeleton` holds one skeleton's rank tables and grid;
:class:`SkeletonPack` stacks many of them into padded arrays, so the
frontier search of :mod:`repro.core.recourse_kernel` bounds a whole
level of nodes, across every signature of a batch, in one evaluation.
:func:`greedy_cover` is the anytime mode's solution.  Everything here is
plain arrays (no solver state, no table handles).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: slack used when testing whether an action set covers ``needed``.
FEASIBILITY_TOL = 1e-9

#: relative rounding allowance of a node bound (see :func:`prune_margin`)
PRUNE_RTOL = 1e-12

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
    * the LP rounding at each grid point (the search's first incumbent
      bound) and the magnitudes :func:`prune_margin` scales with,
    * a cached greedy preference order (the anytime mode's cover).
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
        #: per rank, the index of the no-op (the current code) among its options
        self.noop = np.zeros(n, dtype=np.int64)
        grid_points = [0.0]
        h_rows = np.zeros((n, 0))
        per_attr_lines = []
        for rank, a in enumerate(self.order):
            codes_a = np.concatenate([self.codes[a], [self.current[a]]])
            costs_a = np.concatenate([self.costs[a], [0.0]])
            gains_a = np.concatenate([self.gains[a], [0.0]])
            key = np.lexsort((codes_a, costs_a, -gains_a))
            self.opt_codes.append(codes_a[key])
            self.noop[rank] = int(np.flatnonzero(key == len(codes_a) - 1)[0])
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

        # The LP rounding at each grid point y: per rank the option with
        # the largest g*y - c (among ties the first in branching order,
        # so the largest gain), gains and costs summed in rank order.
        # The first grid point whose set covers a need is a feasible
        # action set, whose cost the search starts pruning against.
        self.seed_gain = np.zeros(len(self.grid))
        self.seed_cost = np.zeros(len(self.grid))
        for gains_r, costs_r in zip(self.opt_gains, self.opt_costs):
            pick = np.argmax(
                gains_r[:, None] * self.grid[None, :] - costs_r[:, None], axis=0
            )
            self.seed_gain = self.seed_gain + gains_r[pick]
            self.seed_cost = self.seed_cost + costs_r[pick]
        self.cost_scale = float(sum(np.abs(c).max() for c in self.opt_costs))
        self.gain_scale = float(sum(np.abs(g).max() for g in self.opt_gains))

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


def prune_margin(cost, best, remaining, y, cost_scale, gain_scale):
    """How far a node's bound may pass the incumbent before it is pruned.

    A search node is pruned when ``cost + bound > best + margin``, where
    ``bound`` is its grid bound attained at the grid point ``y``.  The
    terms that bound sums have magnitude up to ``y * (|remaining| +
    gain_scale) + cost_scale``; the margin is :data:`PRUNE_RTOL` of that
    (plus the node's cost and the incumbent), far above the rounding of
    a few ulps, so no node whose subtree holds a set as cheap as the
    incumbent is pruned.  Nodes that tie the incumbent are kept on
    purpose: among equal costs the tie rule, not the order of discovery,
    picks the answer.  Works on scalars and arrays alike.
    """
    return PRUNE_RTOL * (
        1.0
        + np.abs(cost)
        + np.abs(best)
        + cost_scale
        + y * (np.abs(remaining) + gain_scale)
    )


class SkeletonPack:
    """Many skeletons' rank tables and dual grids as padded arrays.

    Row ``s`` holds skeleton ``s``: per rank its option count (the no-op
    included) and the no-op's index, option costs and gains in branching
    order, its dual grid with the suffix ``h`` rows, the suffix best
    gains and negative costs, the LP-rounding seed per grid point and
    the margin scales.  Options are padded to the widest rank and grids
    to the widest grid;
    a padded grid column repeats the first (``y = 0``), so it changes
    neither a bound nor a seed.  A pack grows as skeletons are added
    (capacity doubles) and keeps every row it has, so a solver packs
    each skeleton once and every batch indexes the same arrays.
    """

    #: the arrays with a grid axis (the last), padded with the y = 0 column
    _GRID_FIELDS = ("grid", "suffix_h", "seed_gain", "seed_cost")

    def __init__(self, n_ranks: int):
        self.n_ranks = int(n_ranks)
        self.skeletons: list[SignatureSkeleton] = []
        self._resize(0, 1, 1)

    @classmethod
    def of(cls, skeletons: Sequence[SignatureSkeleton]) -> "SkeletonPack":
        """A pack of ``skeletons``, row ``i`` holding ``skeletons[i]``."""
        pack = cls(len(skeletons[0].attributes) if skeletons else 0)
        for skeleton in skeletons:
            pack.add(skeleton)
        return pack

    def __len__(self) -> int:
        return len(self.skeletons)

    def _resize(self, capacity: int, width: int, grid_width: int) -> None:
        n = self.n_ranks
        old = getattr(self, "costs", None)
        fresh = {
            "n_options": np.zeros((capacity, n), dtype=np.int64),
            "noop": np.zeros((capacity, n), dtype=np.int64),
            "costs": np.zeros((capacity, n, width)),
            "gains": np.zeros((capacity, n, width)),
            "suffix_gain": np.zeros((capacity, n + 1)),
            "suffix_negcost": np.zeros((capacity, n + 1)),
            "cost_scale": np.zeros(capacity),
            "gain_scale": np.zeros(capacity),
            "grid": np.zeros((capacity, grid_width)),
            "suffix_h": np.zeros((capacity, n + 1, grid_width)),
            "seed_gain": np.zeros((capacity, grid_width)),
            "seed_cost": np.zeros((capacity, grid_width)),
        }
        if old is not None:
            rows = len(self.skeletons)
            for name, array in fresh.items():
                kept = getattr(self, name)[:rows]
                if name in self._GRID_FIELDS:
                    array[:rows] = kept[..., :1]  # pad with the y = 0 column
                array[(slice(0, rows), *map(slice, kept.shape[1:]))] = kept
        for name, array in fresh.items():
            setattr(self, name, array)

    def add(self, skeleton: SignatureSkeleton) -> int:
        """Pack ``skeleton`` and return its row."""
        if len(skeleton.attributes) != self.n_ranks:
            raise ValueError(
                f"a pack of {self.n_ranks}-rank skeletons got "
                f"{len(skeleton.attributes)} ranks"
            )
        row, capacity = len(self.skeletons), self.costs.shape[0]
        shape = (self.costs.shape[2], self.grid.shape[1])
        width = max([shape[0], *map(len, skeleton.opt_costs)])
        grid_width = max(shape[1], len(skeleton.grid))
        if row == capacity or (width, grid_width) != shape:
            grown = max(8, 2 * capacity) if row == capacity else capacity
            self._resize(grown, width, grid_width)
        for rank, (costs_r, gains_r) in enumerate(
            zip(skeleton.opt_costs, skeleton.opt_gains)
        ):
            self.n_options[row, rank] = len(costs_r)
            self.costs[row, rank, : len(costs_r)] = costs_r
            self.gains[row, rank, : len(gains_r)] = gains_r
        self.noop[row] = skeleton.noop
        self.suffix_gain[row] = skeleton.suffix_gain
        self.suffix_negcost[row] = skeleton.suffix_negcost
        self.cost_scale[row] = skeleton.cost_scale
        self.gain_scale[row] = skeleton.gain_scale
        g = len(skeleton.grid)
        for name in self._GRID_FIELDS:
            array, values = getattr(self, name), getattr(skeleton, name)
            array[row, ..., :g] = values
            array[row, ..., g:] = values[..., :1]
        self.skeletons.append(skeleton)
        return row


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
