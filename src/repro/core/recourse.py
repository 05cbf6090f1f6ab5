"""Counterfactual recourse as a 0-1 integer program (Section 4.2).

For an individual with a negative decision, find the minimum-cost
intervention over a user-specified set of actionable attributes whose
sufficiency score exceeds a threshold ``alpha``:

    min  sum_A phi_A(a_A, a_hat_A) * delta_{A, a_hat}
    s.t. SUF_{a_hat}(v) >= alpha
         sum_{a_hat} delta_{A, a_hat} <= 1       for each A
         delta in {0, 1}

The sufficiency constraint is linearised through the logit model of
``Pr(o | A, K)`` (Eq. 28): the constraint becomes a linear inequality
over the deltas with coefficients equal to per-category log-odds
differences. Each distinct program is solved once, at Eq. 28's
threshold, and its solution re-scored with the same logit model; the
reported sufficiency is that re-score (see
:mod:`repro.core.recourse_kernel`).

A cohort reaches :meth:`RecourseSolver.solve_batch` as one
:class:`~repro.data.table.Table` in the estimator's domains, whose
signatures are read off one code matrix; :func:`cohort_tally` is the one
feasibility and cost tally of its answers, behind both the cohort audit
and the recourse monitor.  A solver keeps its actionable attributes in
the table's column order, so every spelling of one set gets the same
answers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core import recourse_kernel
from repro.core.recourse_kernel import MODES
from repro.core.scores import ScoreEstimator
from repro.data.table import Table, unique_rows
from repro.estimation.logit import LogitModel
from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.opt.parametric import SignatureSkeleton, SkeletonPack
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DomainError, RecourseInfeasibleError
from repro.utils.lru import ByteBudgetLRU
from repro.utils.validation import check_probability

CostFn = Callable[[str, int, int], float]

#: entry bound of each solver's signature memo (see :class:`RecourseSolver`)
SOLUTION_MEMO_ENTRIES = 4096

_SOLVER_SIGNATURE_SOLVES = _obs.get_registry().counter(
    "repro_solver_signature_solves_total",
    "Distinct signature solves run by recourse solvers.",
)
_SOLVER_SEARCH_NODES = _obs.get_registry().counter(
    "repro_solver_search_nodes_total",
    "Frontier nodes expanded by the exact recourse search.",
)


def unit_step_cost(attribute: str, current_code: int, new_code: int) -> float:
    """Default cost: one unit per ordinal step moved."""
    return float(abs(new_code - current_code))


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class RecourseAction:
    """One attribute change: ``attribute: current -> new``."""

    attribute: str
    current_value: Any
    new_value: Any
    cost: float


@dataclass(frozen=True)
class Recourse:
    """A recommended intervention with its estimated effect.

    Frozen: :meth:`RecourseSolver.solve_batch` hands the *same* memoised
    instance to every row sharing a signature, so a mutable recourse
    would let one caller silently corrupt the answer served to all
    tenants.  ``optimality_gap`` is 0 for exact solves; in
    ``mode="anytime"`` it is a certified bound — the true exact cost is
    guaranteed within ``total_cost - optimality_gap``..``total_cost``.
    """

    actions: tuple[RecourseAction, ...]
    total_cost: float
    estimated_sufficiency: float
    estimated_probability: float
    threshold: float
    n_constraints: int
    n_variables: int
    optimality_gap: float = 0.0
    mode: str = "exact"

    def __post_init__(self):
        # Accept any sequence of actions but store an immutable tuple.
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def is_empty(self) -> bool:
        """True when no action is needed (constraint already satisfied)."""
        return not self.actions

    def as_dict(self) -> dict[str, Any]:
        """``{attribute: new value}`` for the recommended intervention."""
        return {a.attribute: a.new_value for a in self.actions}

    def statements(self) -> list[str]:
        """Human-readable action list in the style of Figure 1."""
        if self.is_empty:
            return ["No action needed: the target probability is already met."]
        lines = [
            f"Change {a.attribute} from {a.current_value!r} to {a.new_value!r}"
            for a in self.actions
        ]
        lines.append(
            f"This recourse will lead to a positive decision with probability "
            f">= {self.estimated_sufficiency:.0%}."
        )
        return lines


def program_skeleton(
    table: Table,
    actionable: Sequence[str],
    current: Sequence[int],
    cost_fn: CostFn,
    coefficients: Mapping[str, Sequence[float]],
) -> SignatureSkeleton:
    """The 0-1 recourse program of one current-code tuple of ``actionable``.

    Each attribute's options are its codes other than ``current``, each
    priced by ``cost_fn`` and gaining ``coefficients[attribute][code] -
    coefficients[attribute][current]`` in the linear score.  LEWIS
    recourse and the LinearIP baseline build their programs here.
    """
    codes, costs, gains = [], [], []
    for attribute, cur in zip(actionable, current):
        coef = coefficients[attribute]
        options = [
            code for code in range(table.column(attribute).cardinality) if code != cur
        ]
        codes.append(options)
        costs.append([float(cost_fn(attribute, cur, code)) for code in options])
        gains.append([float(coef[code] - coef[cur]) for code in options])
    return SignatureSkeleton(actionable, current, codes, costs, gains)


def recourse_actions(
    table: Table,
    cost_fn: CostFn,
    current: Mapping[str, int],
    chosen: Mapping[str, int],
) -> list[RecourseAction]:
    """One action per attribute of ``current`` that ``chosen`` moves.

    ``chosen`` maps an attribute to its new code, as the kernel's
    solutions do; actions follow the order of ``current``.
    """
    actions = []
    for attribute, code in current.items():
        if attribute not in chosen or chosen[attribute] == code:
            continue
        new = int(chosen[attribute])
        categories = table.column(attribute).categories
        actions.append(
            RecourseAction(
                attribute=attribute,
                current_value=categories[code],
                new_value=categories[new],
                # The program priced this move through cost_fn; the
                # reported per-action cost must agree.
                cost=float(cost_fn(attribute, code, new)),
            )
        )
    return actions


def cohort_tally(recourses: Sequence[Recourse | None]) -> dict[str, Any]:
    """Feasibility counts and cost statistics of one cohort's answers.

    ``recourses`` holds one answer per row, ``None`` where the row has
    no recourse.  Costs are over the feasible recourses that act, and
    ``attribute_counts`` says how often each attribute is changed, most
    frequent first.  The cohort audit and the recourse monitor both
    summarise through here.
    """
    feasible = [r for r in recourses if r is not None]
    costs = [r.total_cost for r in feasible if not r.is_empty]
    # most_common keeps first-seen order among equal counts
    moved = Counter(action.attribute for r in feasible for action in r.actions)
    return {
        "feasible": len(feasible),
        "infeasible": len(recourses) - len(feasible),
        "already_satisfied": sum(r.is_empty for r in feasible),
        "mean_cost": float(np.mean(costs)) if costs else 0.0,
        "max_cost": float(np.max(costs)) if costs else 0.0,
        "attribute_counts": dict(moved.most_common()),
    }


class RecourseSolver:
    """Builds and solves the recourse IP for one population.

    Parameters
    ----------
    estimator:
        Score estimator over the black box's input-output table.
    actionable:
        Attribute names a recourse may change, each named once.  The
        solver keeps them in the table's column order, which the logit's
        features and the actions follow, so every spelling of one set
        gets the same answers.
    cost_fn:
        ``cost_fn(attribute, current_code, new_code) -> float``; defaults
        to :func:`unit_step_cost`.

    Solved signatures are memoised for the solver's lifetime (until the
    next delta replaces it) in an LRU bounded at
    :data:`SOLUTION_MEMO_ENTRIES` entries, so its memory tracks the
    bound, not the number of audits served.  An evicted signature is
    solved again when next asked, to the same answer.
    """

    def __init__(
        self,
        estimator: ScoreEstimator,
        actionable: Sequence[str],
        cost_fn: CostFn | None = None,
    ):
        if not actionable:
            raise ValueError("actionable set must not be empty")
        wanted = set(actionable)
        if len(wanted) != len(actionable):
            raise ValueError(
                f"actionable attributes listed twice: {list(actionable)}"
            )
        table = estimator.table
        missing = [a for a in actionable if a not in table]
        if missing:
            raise KeyError(f"actionable attributes not in the data: {missing}")
        self._est = estimator
        self.actionable = [n for n in table.names if n in wanted]
        self.cost_fn = cost_fn or unit_step_cost
        # Context: non-descendants of the actionable set (Section 4.2).
        feature_names = [n for n in table.names if n != estimator._outcome]
        diagram = estimator.diagram
        if diagram is not None:
            known = [a for a in self.actionable if a in diagram]
            context_names = sorted(
                diagram.non_descendants_of(known)
                & set(feature_names)
                - set(self.actionable)
            )
        else:
            context_names = [n for n in feature_names if n not in self.actionable]
        self.context_names = context_names
        self._logit = LogitModel(self.actionable + context_names)
        self._logit.fit(*estimator.outcome_cells(self._logit.features))
        #: per-attribute log-odds vectors, read once per solver
        self._coef_vectors = {
            a: self._logit.coefficient_vector(a) for a in self.actionable
        }
        #: solve-ready program skeletons, packed for the kernel; a row
        #: per actionable current-code tuple, on which variables, costs,
        #: gains and exclusivity rows alone depend
        self._pack = SkeletonPack(len(self.actionable))
        self._skeleton_rows: dict[tuple[int, ...], int] = {}
        #: per pack row, its ranks in actionable order and each rank's
        #: option codes, as lists
        self._rank_codes: list[tuple[list[int], list[list[int]]]] = []
        #: each move as a frozen action, keyed by (attribute, from, to)
        self._moves: dict[tuple[str, int, int], RecourseAction] = {}
        #: solved recourses memoised by (signature, alpha, mode); distinct
        #: individuals sharing (current codes, context) share the answer
        self._solutions = ByteBudgetLRU(max_entries=SOLUTION_MEMO_ENTRIES)
        #: cumulative kernel counters (solves, frontier nodes)
        self._counters = {"signature_solves": 0, "search_nodes": 0}

    def _skeleton_row(self, key: tuple[int, ...]) -> int:
        """Pack row of one actionable current-code tuple's program (cached).

        A cohort's individuals mostly collide on their actionable codes,
        so the coefficient/cost assembly and the packing run once per
        distinct tuple instead of once per row.
        """
        row = self._skeleton_rows.get(key)
        if row is None:
            skeleton = program_skeleton(
                self._est.table, self.actionable, key, self.cost_fn, self._coef_vectors
            )
            row = self._skeleton_rows[key] = self._pack.add(skeleton)
            self._rank_codes.append(
                (
                    np.argsort(skeleton.order, kind="stable").tolist(),
                    [codes.tolist() for codes in skeleton.opt_codes],
                )
            )
        return row

    def _actions(self, row: int, selection: list[int]) -> tuple[RecourseAction, ...]:
        """The moves of a selection of pack row ``row``, in actionable order."""
        ranks, codes = self._rank_codes[row]
        current = self._pack.skeletons[row].current
        actions = []
        for a, rank in enumerate(ranks):
            j = selection[rank]
            if j < 0 or codes[rank][j] == current[a]:
                continue
            move = (self.actionable[a], current[a], codes[rank][j])
            action = self._moves.get(move)
            if action is None:
                attribute, code, new = move
                action = self._moves[move] = recourse_actions(
                    self._est.table, self.cost_fn, {attribute: code}, {attribute: new}
                )[0]
            actions.append(action)
        return tuple(actions)

    # -- solving -------------------------------------------------------------

    def _materialize(
        self,
        answers: recourse_kernel.SignatureAnswers,
        k: int,
        row: int,
        alpha: float,
        mode: str,
    ) -> Recourse | RecourseInfeasibleError:
        """Turn answer ``k`` of the kernel into a :class:`Recourse`, or the
        :class:`RecourseInfeasibleError` to memoise for the signature.

        ``answers`` holds the kernel's columns as lists (one conversion
        per batch, so each answer reads plain Python numbers).

        The error is returned, never raised here: a raised error keeps
        its traceback, and with it this frame's locals, alive in the
        memo for as long as the memo holds it.
        """
        status = answers.status[k]
        if status == recourse_kernel.NO_CANDIDATES:
            # No candidate action exists (all actionable attributes are
            # stuck at their only value) and the threshold is not yet
            # met: provably infeasible.
            return RecourseInfeasibleError(
                f"no candidate values on {self.actionable} and the "
                f"target probability is not met"
            )
        if status == recourse_kernel.UNREACHABLE:
            return RecourseInfeasibleError(
                f"no intervention on {self.actionable} reaches sufficiency {alpha}"
            )
        if status == recourse_kernel.EMPTY:
            # Constraint (25) already holds with delta = 0: the paper's
            # "no action is taken" case.
            probability = answers.probability[k]
            return Recourse(
                actions=(),
                total_cost=0.0,
                estimated_sufficiency=1.0,
                estimated_probability=probability,
                threshold=probability,
                n_constraints=0,
                n_variables=0,
                optimality_gap=0.0,
                mode=mode,
            )
        skeleton = self._pack.skeletons[row]
        return Recourse(
            actions=self._actions(row, answers.selection[k]),
            total_cost=answers.objective[k],
            estimated_sufficiency=answers.sufficiency[k],
            estimated_probability=answers.probability[k],
            threshold=answers.threshold[k],
            n_constraints=skeleton.n_constraints,
            n_variables=skeleton.n_variables,
            optimality_gap=answers.gap[k],
            mode=mode,
        )

    def _absorb_stats(self, answers: recourse_kernel.SignatureAnswers) -> None:
        solves, nodes = len(answers.status), int(answers.nodes.sum())
        self._counters["signature_solves"] += solves
        self._counters["search_nodes"] += nodes
        if _obs.enabled():
            _SOLVER_SIGNATURE_SOLVES.inc(solves)
            _SOLVER_SEARCH_NODES.inc(nodes)

    def solve_batch(
        self,
        cohort: Table,
        alpha: float = 0.8,
        on_infeasible: str = "raise",
        mode: str = "exact",
        row_ids: Sequence[int] | None = None,
    ) -> list[Recourse | None]:
        """Minimal-cost recourse for each row of ``cohort``.

        ``cohort`` is a :class:`Table` in the estimator's domains (as
        ``table.take(indices)`` makes it) holding at least the actionable
        and context columns; a missing one raises ``KeyError``, one over
        another domain ``DomainError``, and other columns are ignored.
        Eq. (28) turns the target sufficiency ``alpha`` into the
        probability threshold ``Pr(o|a,k) + alpha * Pr(o'|a,k)``;
        ``mode="anytime"`` returns the greedy LP rounding with a
        certified ``optimality_gap`` instead of the exact optimum.

        Individuals are grouped by their ``(current actionable codes,
        context)`` signature so each distinct 0-1 program is solved once
        (categorical cohorts collide heavily); solved signatures are
        memoised across calls keyed by ``(signature, alpha, mode)``.
        The unsolved signatures' base
        log-odds are scored in one pass, and all of them go through one
        :func:`recourse_kernel.solve_signature` call, whose frontier
        search checks the request deadline once per level.  A
        signature's answer depends only on its own program, so it is the
        same whichever batch, or which earlier request, first solved it:
        a one-row ``cohort.take([i])`` answers row ``i`` of ``cohort``.

        ``on_infeasible`` is ``"raise"`` (the first infeasible row
        aborts the batch with :class:`RecourseInfeasibleError`) or
        ``"none"`` (infeasible rows yield ``None`` — the cohort-audit
        mode).  The raised error names the row by ``row_ids[i]`` (e.g.
        its table index), or by its position in ``cohort`` without them.
        """
        check_probability(alpha, "alpha")
        _check_mode(mode)
        if on_infeasible not in ("raise", "none"):
            raise ValueError(
                f"on_infeasible must be 'raise' or 'none', got {on_infeasible!r}"
            )
        names = self.actionable + self.context_names
        domains = [self._est.table.domain(name) for name in names]
        foreign = [n for n, d in zip(names, domains) if cohort.domain(n) != d]
        if foreign:
            raise DomainError(f"cohort columns in other domains: {foreign}")
        matrix = cohort.codes_matrix(names)
        if not len(matrix):
            return []
        _deadline.check("recourse solve_batch")
        cards = [len(domain) for domain in domains]
        signatures, _, inverse = unique_rows(matrix.T, cards, return_inverse=True)
        # The memo key includes the mode: an anytime answer must never
        # be served where an exact one was asked.  Answers are read from
        # this call's own dict, so the memo evicting an entry mid-batch
        # cannot lose one.
        solved: dict[int, Recourse | RecourseInfeasibleError] = {}
        keys = list(map(tuple, signatures.tolist()))
        need = []
        for i, signature in enumerate(keys):
            memoised = self._solutions.get((signature, alpha, mode))
            if memoised is None:
                need.append(i)
            else:
                solved[i] = memoised
        if need:
            base_logits = self._logit.score_codes_batch(signatures[need])
            width = len(self.actionable)
            rows = [self._skeleton_row(keys[i][:width]) for i in need]
            with _tracing.span("recourse_solve", tags={"signatures": len(need)}):
                answers = recourse_kernel.solve_signature(
                    self._pack, rows, base_logits, alpha, mode=mode
                )
            self._absorb_stats(answers)
            listed = type(answers)(*(column.tolist() for column in answers))
            for k, (i, row) in enumerate(zip(need, rows)):
                solved[i] = self._materialize(listed, k, row, alpha, mode)
                self._solutions.put((keys[i], alpha, mode), solved[i], size=1)
        out: list[Recourse | None] = []
        for row_index, unique_index in enumerate(inverse):
            answer = solved[unique_index]
            if isinstance(answer, RecourseInfeasibleError):
                if on_infeasible == "raise":
                    row = row_index if row_ids is None else row_ids[row_index]
                    raise RecourseInfeasibleError(f"row {row}: {answer}") from answer
                out.append(None)
            else:
                out.append(answer)
        return out

    def solution_memo_stats(self) -> dict:
        """Size and solve counters of the signature-keyed caches."""
        infeasible = sum(
            isinstance(v, RecourseInfeasibleError)
            for v in self._solutions.values()
        )
        return {
            "solved_signatures": len(self._solutions),
            "infeasible_signatures": infeasible,
            "program_skeletons": len(self._pack),
            **self._counters,
        }
