"""One-at-a-time reference implementations for the parity tests.

The library answers every score, local probe and explanation through
batched paths.  The functions here evaluate one contrast, one probe pair
or one individual per call instead, straight from the paper's formulas,
and the parity tests hold the batched paths to them at 1e-12:

* :func:`scalar_scores` — Eqs. (19)–(21) of Proposition 4.2 for one
  contrast, from single-query engine lookups and :func:`adjusted_one`,
  the backdoor sum of Eq. 4 as a row-mask scan over the observed
  adjustment cells;
* :func:`local_scores` — the no-confounding local scores of one
  contrast from two :func:`local_probability` probes, each one row of
  the estimator's cached regression in the context
  :func:`local_context` reads off the individual's codes;
* :func:`global_explanation_scalar` — the global/contextual explanation
  with one :func:`scalar_scores` call per value pair;
* :func:`local_explanation_scalar` — the local explanation as the
  attributes × value-pairs × 2-probes loop of Section 3.2;
* :func:`solve_ip_milp` — one recourse 0-1 program (a
  :class:`SignatureSkeleton` and the gain it must reach) solved by
  scipy's HiGHS MILP on :func:`skeleton_matrices`, which the LinearIP
  parity test holds the kernel's exact step to;
  :func:`milp_frontier_search` runs it per program as a drop-in for
  ``recourse_kernel.frontier_search``, which the LEWIS recourse parity
  tests and ``bench_recourse_scale.py`` swap in.  scipy is a test-only
  dependency of recourse: the library's one exact solver is the
  parametric frontier search;
* :func:`dfs_exact_step` — the depth-first recursion that was the exact
  search before the frontier, under the kernel's written tie rule, which
  ``tests/test_recourse_frontier.py`` holds the frontier's selections and
  costs to, bit for bit; :func:`dfs_frontier_search` drives a solver
  with it;
* :func:`cohort` — a recourse cohort written by hand as ``{column:
  code}`` rows, built into the :class:`Table` in a table's domains that
  ``RecourseSolver.solve_batch`` takes;
* :func:`rebuild_summary` — a monitor's summary recomputed on a fresh
  estimator over the session's current table, which
  ``tests/test_monitor_stream.py`` and ``bench_monitor_stream.py`` hold
  the incrementally maintained summary to, bit for bit;
* :func:`outcome_model_on_rows` / :func:`logit_model_on_rows` — the
  local and recourse regressions fitted with one design row per table
  row, which ``tests/test_cell_fit.py`` holds the library's fit from
  count cells to at 1e-12;
* :func:`scan_demographic_disparity` /
  :func:`scan_monotonicity_violation` — the observational disparity and
  monotonicity diagnostics as one boolean-mask row scan per code, which
  ``tests/test_fairness.py`` holds the library's count forms to, bit
  for bit;
* :class:`NxCausalDiagram` — the causal diagram over a
  :class:`networkx.DiGraph` (networkx is a test-only dependency), which
  ``tests/test_graph_oracle.py`` holds the dict-based
  :class:`~repro.causal.graph.CausalDiagram` to, orders included;
* :func:`answer_json_oracle` — an answer's JSON bytes as a recursive
  :func:`jsonable` walk to plain types and then ``json.dumps``, which
  ``tests/test_answer_encoding.py`` holds the session's one-pass
  :func:`~repro.service.session.encode_json` to, byte for byte.

``benchmarks/bench_local_batch.py`` times the cohort fast path against
:func:`local_explanation_scalar` as well.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.explanations import (
    SCORE_KEYS,
    AttributeScore,
    GlobalExplanation,
    LocalContribution,
    LocalExplanation,
    _truncated_pairs,
)
from repro.core.recourse import RecourseSolver
from repro.core.recourse_kernel import SearchResult
from repro.core.scores import ScoreEstimator, ScoreTriple
from repro.data.encoding import OneHotEncoder
from repro.data.table import Table
from repro.estimation.engine import ContingencyEngine
from repro.estimation.logit import LogitModel
from repro.estimation.outcome_model import OutcomeProbabilityModel
from repro.models.linear import LogisticRegression
from repro.monitor.summaries import _summarize
from repro.opt.parametric import (
    FEASIBILITY_TOL,
    SignatureSkeleton,
    SkeletonPack,
    prune_margin,
)
from repro.utils.exceptions import EstimationError, GraphError


def _clip01(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


def _conditional(estimator: ScoreEstimator, event: dict, given: dict) -> float:
    """``Pr(event | given)``, 0 when ``given`` has no support."""
    return float(estimator.engine.probabilities([event], [given], default=0.0)[0])


def _row_mask(table: Table, conditions: Mapping[str, int]) -> np.ndarray:
    mask = np.ones(len(table), dtype=bool)
    for name, code in conditions.items():
        mask &= table.codes(name) == int(code)
    return mask


def _scan_probability(
    engine: ContingencyEngine, event: Mapping[str, int], given: Mapping[str, int]
) -> float | None:
    """``Pr(event | given)`` from two row-mask counts; ``None`` unsupported.

    Conflicting event/condition codes give 0 and an event the condition
    implies gives 1, before any count; Laplace smoothing spreads the
    engine's ``alpha`` over the remaining event columns' joint domain.
    """
    if any(event[c] != given[c] for c in event.keys() & given.keys()):
        return 0.0
    event = {c: v for c, v in event.items() if c not in given}
    if not event:
        return 1.0
    table = engine.table
    given_mask = _row_mask(table, given)
    denom = int(given_mask.sum())
    numer = int((given_mask & _row_mask(table, event)).sum())
    if engine.alpha > 0:
        cells = int(np.prod([table.column(c).cardinality for c in event]))
        return (numer + engine.alpha) / (denom + engine.alpha * cells)
    return numer / denom if denom else None


def adjusted_one(
    engine: ContingencyEngine,
    event: Mapping[str, int],
    treatment: Mapping[str, int],
    adjustment: Sequence[str],
    weight_condition: Mapping[str, int] | None = None,
    context: Mapping[str, int] | None = None,
) -> float:
    """``sum_c Pr(event | c, treatment, k) Pr(c | weight_condition, k)``.

    Eq. 4 as a row scan: mask the rows matching the weight condition and
    the context, loop over their observed adjustment cells, and weigh
    each cell's count-ratio conditional by the cell's share; an
    unsupported cell takes ``Pr(event | treatment, k)`` (0 when that is
    unsupported too).  Context columns leave the adjustment set, and
    context codes win over treatment and weight codes.  The per-cell
    terms sit in a grid over the sorted adjustment columns and one
    ``np.sum`` adds them, the order the engine adds its mixture in, so a
    near-tie between two contrasts breaks the same way in both.
    """
    context = dict(context or {})
    free = sorted({a for a in adjustment if a not in context})
    given = {**treatment, **context}
    if not free:
        value = _scan_probability(engine, event, given)
        if value is None:
            raise EstimationError(f"no rows satisfy conditioning event {given!r}")
        return value
    table = engine.table
    weight_mask = _row_mask(table, {**(weight_condition or {}), **context})
    total = int(weight_mask.sum())
    if total == 0:
        raise EstimationError("no rows satisfy the weight condition")
    combos, counts = np.unique(
        table.codes_matrix(free)[weight_mask], axis=0, return_counts=True
    )
    fallback = _scan_probability(engine, event, given)
    terms = np.zeros([table.column(a).cardinality for a in free])
    for combo, count in zip(combos.tolist(), counts.tolist()):
        inner = _scan_probability(engine, event, {**dict(zip(free, combo)), **given})
        if inner is None:
            inner = 0.0 if fallback is None else fallback
        terms[tuple(combo)] = count / total * inner
    return float(terms.sum())


def necessity(
    estimator: ScoreEstimator,
    treatment: Mapping[str, int],
    baseline: Mapping[str, int],
    context: Mapping[str, int] | None = None,
) -> float:
    """``NEC^{x'}_x(k)``, Eq. (19)."""
    context = dict(context or {})
    estimator._check_pair(treatment, baseline)
    adjustment = estimator._adjustment_for(list(treatment), list(context))
    outcome = estimator._outcome
    denom = _conditional(estimator, {outcome: 1}, {**treatment, **context})
    if denom <= 0:
        return 0.0
    mixed = adjusted_one(
        estimator.engine, {outcome: 0}, baseline, adjustment, treatment, context
    )
    plain = _conditional(estimator, {outcome: 0}, {**treatment, **context})
    return _clip01((mixed - plain) / denom)


def sufficiency(
    estimator: ScoreEstimator,
    treatment: Mapping[str, int],
    baseline: Mapping[str, int],
    context: Mapping[str, int] | None = None,
) -> float:
    """``SUF^{x'}_x(k)``, Eq. (20)."""
    context = dict(context or {})
    estimator._check_pair(treatment, baseline)
    adjustment = estimator._adjustment_for(list(treatment), list(context))
    outcome = estimator._outcome
    denom = _conditional(estimator, {outcome: 0}, {**baseline, **context})
    if denom <= 0:
        return 0.0
    mixed = adjusted_one(
        estimator.engine, {outcome: 1}, treatment, adjustment, baseline, context
    )
    plain = _conditional(estimator, {outcome: 1}, {**baseline, **context})
    return _clip01((mixed - plain) / denom)


def necessity_sufficiency(
    estimator: ScoreEstimator,
    treatment: Mapping[str, int],
    baseline: Mapping[str, int],
    context: Mapping[str, int] | None = None,
) -> float:
    """``NESUF^{x'}_x(k)``, Eq. (21)."""
    context = dict(context or {})
    estimator._check_pair(treatment, baseline)
    adjustment = estimator._adjustment_for(list(treatment), list(context))
    outcome = estimator._outcome
    engine = estimator.engine
    high = adjusted_one(engine, {outcome: 1}, treatment, adjustment, context=context)
    low = adjusted_one(engine, {outcome: 1}, baseline, adjustment, context=context)
    return _clip01(high - low)


def scalar_scores(
    estimator: ScoreEstimator,
    treatment: Mapping[str, int],
    baseline: Mapping[str, int],
    context: Mapping[str, int] | None = None,
) -> ScoreTriple:
    """All three scores of one contrast, each from its own formula."""
    return ScoreTriple(
        necessity=necessity(estimator, treatment, baseline, context),
        sufficiency=sufficiency(estimator, treatment, baseline, context),
        necessity_sufficiency=necessity_sufficiency(
            estimator, treatment, baseline, context
        ),
    )


def local_context(
    estimator: ScoreEstimator, attribute: str, row_codes: Mapping[str, int]
) -> dict[str, int]:
    """The individual's non-descendant assignment ``k`` for ``attribute``."""
    return {
        name: int(row_codes[name])
        for name in estimator._local_keep_names(attribute)
        if name in row_codes
    }


def local_probability(
    estimator: ScoreEstimator,
    attribute: str,
    code: int,
    context: Mapping[str, int],
) -> float:
    """``Pr(o | X=code, K=context)`` as one probe of the estimator's
    cached regression over ``(attribute, *sorted(context))``."""
    names = sorted(context)
    model = estimator._local_model((attribute, *names))
    row = np.array([[code, *(context[name] for name in names)]], dtype=np.int64)
    return float(model.probability_codes_batch(row)[0])


def local_scores(
    estimator: ScoreEstimator,
    attribute: str,
    x: int,
    x_prime: int,
    context: Mapping[str, int],
) -> ScoreTriple:
    """Local NEC / SUF / NESUF under no-confounding given a full context.

    Conditioning on all non-descendants of ``attribute`` includes all
    of its observed parents, so the no-confounding formulas (Section 6)
    are causally valid here.
    """
    if x == x_prime:
        raise ValueError("x and x_prime must differ")
    p_hi = local_probability(estimator, attribute, x, context)
    p_lo = local_probability(estimator, attribute, x_prime, context)
    nec = (1.0 - p_lo - (1.0 - p_hi)) / p_hi if p_hi > 0 else 0.0
    suf = (p_hi - p_lo) / (1.0 - p_lo) if p_lo < 1 else 0.0
    return ScoreTriple(
        necessity=_clip01(nec),
        sufficiency=_clip01(suf),
        necessity_sufficiency=_clip01(p_hi - p_lo),
    )


def global_explanation_scalar(
    estimator: ScoreEstimator,
    attributes: Sequence[str],
    context: Mapping[str, int] | None = None,
    context_labels: Mapping[str, Any] | None = None,
    max_pairs_per_attribute: int | None = None,
) -> GlobalExplanation:
    """``build_global_explanation`` with one scalar score call per pair."""
    context = dict(context or {})
    table = estimator.table
    scored = [a for a in attributes if a not in context]
    contrasts: list[tuple[dict, dict]] = []
    owners: list[tuple[str, int, int]] = []
    for attribute in scored:
        col = table.column(attribute)
        for hi, lo in _truncated_pairs(col.cardinality, max_pairs_per_attribute):
            contrasts.append(({attribute: hi}, {attribute: lo}))
            owners.append((attribute, hi, lo))
    triples = [
        scalar_scores(estimator, treatment, baseline, context)
        for treatment, baseline in contrasts
    ]

    best = {a: {k: 0.0 for k in SCORE_KEYS} for a in scored}
    best_pair: dict[str, dict[str, tuple | None]] = {
        a: {k: None for k in SCORE_KEYS} for a in scored
    }
    for (attribute, hi, lo), triple in zip(owners, triples):
        col = table.column(attribute)
        for key in SCORE_KEYS:
            value = getattr(triple, key)
            if value > best[attribute][key]:
                best[attribute][key] = value
                best_pair[attribute][key] = (col.categories[hi], col.categories[lo])
    scores = [
        AttributeScore(
            attribute=attribute,
            necessity=best[attribute]["necessity"],
            sufficiency=best[attribute]["sufficiency"],
            necessity_sufficiency=best[attribute]["necessity_sufficiency"],
            best_pair_necessity=best_pair[attribute]["necessity"],
            best_pair_sufficiency=best_pair[attribute]["sufficiency"],
            best_pair_nesuf=best_pair[attribute]["necessity_sufficiency"],
        )
        for attribute in scored
    ]
    labels = dict(context_labels or {})
    if not labels and context:
        labels = {
            name: table.column(name).categories[code]
            for name, code in context.items()
        }
    return GlobalExplanation(context=labels, attribute_scores=scores)


def local_explanation_scalar(
    estimator: ScoreEstimator,
    row_codes: Mapping[str, int],
    outcome_positive: bool,
    attributes: Sequence[str],
) -> LocalExplanation:
    """The four max-formulas of Section 3.2, one probe pair at a time."""
    table = estimator.table
    contributions: list[LocalContribution] = []
    for attribute in attributes:
        col = table.column(attribute)
        current = int(row_codes[attribute])
        context = local_context(estimator, attribute, row_codes)
        higher = range(current + 1, col.cardinality)
        lower = range(current)

        best_negative, best_positive = 0.0, 0.0
        negative_foil = positive_foil = None
        if outcome_positive:
            # Positive contribution: dropping to a lower value would flip.
            for x_low in lower:
                nec = local_scores(estimator, attribute, current, x_low, context).necessity
                if nec > best_positive:
                    best_positive = nec
                    positive_foil = col.categories[x_low]
            # Negative contribution: individuals at a higher value would
            # lose the decision if brought down to the current value.
            for x_high in higher:
                nec = local_scores(estimator, attribute, x_high, current, context).necessity
                if nec > best_negative:
                    best_negative = nec
                    negative_foil = col.categories[x_high]
        else:
            # Negative contribution: raising the value would flip to positive.
            for x_high in higher:
                suf = local_scores(estimator, attribute, x_high, current, context).sufficiency
                if suf > best_negative:
                    best_negative = suf
                    negative_foil = col.categories[x_high]
            # Positive contribution: the current value already helps vs lower.
            for x_low in lower:
                suf = local_scores(estimator, attribute, current, x_low, context).sufficiency
                if suf > best_positive:
                    best_positive = suf
                    positive_foil = col.categories[x_low]
        contributions.append(
            LocalContribution(
                attribute=attribute,
                value=col.categories[current],
                positive=best_positive,
                negative=best_negative,
                negative_foil=negative_foil,
                positive_foil=positive_foil,
            )
        )
    individual = {
        name: table.column(name).categories[int(code)]
        for name, code in row_codes.items()
        if name in table
    }
    return LocalExplanation(
        individual=individual,
        outcome_positive=bool(outcome_positive),
        contributions=contributions,
    )


def outcome_model_on_rows(
    features: Sequence[str], table: Table, positive: np.ndarray, l2: float = 1e-3
) -> OutcomeProbabilityModel:
    """:class:`OutcomeProbabilityModel` fitted with one design row per table row."""
    positive = np.asarray(positive, dtype=bool)
    model = OutcomeProbabilityModel(features, l2=l2)
    subset = table.select(model.features)
    model._encoder = OneHotEncoder(drop_first=True).fit(subset)
    if positive.all() or not positive.any():
        model._constant = float(positive.mean())
        model._model = None
        return model
    model._constant = None
    model._model = LogisticRegression(l2=l2).fit(
        model._encoder.transform(subset), positive.astype(int)
    )
    return model


def logit_model_on_rows(
    features: Sequence[str],
    table: Table,
    positive: np.ndarray,
    l2: float = 1.0,
) -> LogitModel:
    """:class:`LogitModel` fitted with one design row per table row.

    Raises ``ValueError`` on a single-class ``positive``, like the
    library's fit.
    """
    model = LogitModel(features, l2=l2)
    subset = table.select(model.features)
    model._encoder = OneHotEncoder(drop_first=True).fit(subset)
    model._model = LogisticRegression(l2=l2).fit(
        model._encoder.transform(subset), np.asarray(positive, dtype=bool).astype(int)
    )
    return model


def cohort(table: Table, rows: Iterable[Mapping[str, int]]) -> Table:
    """``{column: code}`` rows as a table in ``table``'s domains.

    Each row assigns every column of ``table``; a code outside its
    column's domain raises :class:`~repro.utils.exceptions.DomainError`.
    """
    rows = list(rows)
    return Table(
        col.replaced(np.array([row[col.name] for row in rows], dtype=np.int64))
        for col in table
    )


def rebuild_summary(lewis, spec: Mapping) -> dict[str, float]:
    """A monitor's summary from a from-scratch rebuild.

    Re-predicts the positive-decision vector over the session's
    *current* table (the O(n) model-inference pass the incremental path
    replaces with O(|delta|) predictions on inserted rows), builds a
    fresh :class:`ScoreEstimator` (fresh contingency engine, fresh
    counts) and a fresh recourse solver on top, and recomputes the
    summary.  It covers the maintained predictions as well as the
    maintained counts, and it is the recompute-per-batch straw man
    ``bench_monitor_stream.py`` races the incremental path against.
    """
    est = lewis.estimator
    positive = np.asarray(lewis.predict_positive(est._features), dtype=bool)
    fresh = ScoreEstimator(est._features, positive, diagram=est.diagram)
    return _summarize(
        fresh, spec, lambda actionable: RecourseSolver(fresh, list(actionable))
    )


def skeleton_matrices(
    skeleton: SignatureSkeleton, needed: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, A_ub, b_ub)`` of one signature program in scipy's form.

    ``min c.x`` subject to ``A_ub x <= b_ub``: one row per attribute
    with candidates caps its picks at one, and the last row is the
    negated covering row ``-g.x <= -needed``.  Variables run attribute
    by attribute in the skeleton's candidate order.
    """
    c = np.concatenate([np.empty(0), *skeleton.costs])
    gains = np.concatenate([np.empty(0), *skeleton.gains])
    rows, offset = [], 0
    for codes in skeleton.codes:
        if len(codes):
            row = np.zeros(len(c))
            row[offset : offset + len(codes)] = 1.0
            rows.append(row)
        offset += len(codes)
    A_ub = np.array([*rows, -gains]).reshape(len(rows) + 1, len(c))
    b_ub = np.array([1.0] * len(rows) + [-float(needed)])
    return c, A_ub, b_ub


def solve_ip_milp(
    skeleton: SignatureSkeleton, needed: float
) -> tuple[dict[str, int], float] | None:
    """One signature program solved by scipy's HiGHS MILP.

    Returns ``({attribute: new code}, cost)``, or ``None`` when no
    action set covers ``needed``.  Any other non-optimal HiGHS status
    raises ``RuntimeError``, naming it.
    """
    c, A_ub, b_ub = skeleton_matrices(skeleton, needed)
    if len(c) == 0:
        return ({}, 0.0) if needed <= FEASIBILITY_TOL else None
    result = milp(
        c,
        constraints=LinearConstraint(A_ub, -np.inf, b_ub),
        integrality=np.ones(len(c)),
        bounds=Bounds(0, 1),
    )
    if result.status == 2:  # infeasible
        return None
    if result.status != 0:
        raise RuntimeError(
            f"HiGHS MILP ended with status {result.status}: {result.message}"
        )
    owners = [
        (attribute, int(code))
        for attribute, codes in zip(skeleton.attributes, skeleton.codes)
        for code in codes
    ]
    chosen = {
        attribute: code
        for (attribute, code), x in zip(owners, result.x)
        if round(x) == 1
    }
    return chosen, float(result.fun)


def gain_of(skeleton: SignatureSkeleton, chosen: Mapping[str, int]) -> float:
    """Total linearised gain of an attribute->code action set."""
    total = 0.0
    index = {a: i for i, a in enumerate(skeleton.attributes)}
    for attribute, code in chosen.items():
        a = index[attribute]
        hits = np.nonzero(skeleton.codes[a] == int(code))[0]
        if len(hits):
            total += float(skeleton.gains[a][hits[0]])
    return total


def _selection_of(
    skeleton: SignatureSkeleton, chosen: Mapping[str, int]
) -> np.ndarray:
    """Option index per rank of an attribute->code set (the no-op elsewhere)."""
    codes = dict(zip(skeleton.attributes, skeleton.current))
    codes.update(chosen)
    return np.array(
        [
            int(np.flatnonzero(options == codes[skeleton.attributes[a]])[0])
            for a, options in zip(skeleton.order, skeleton.opt_codes)
        ],
        dtype=np.int64,
    )


def _one_at_a_time(pack: SkeletonPack, rows, needed, step) -> SearchResult:
    """A ``frontier_search`` drop-in that runs ``step`` per program.

    ``step(skeleton, needed)`` returns ``(selection, cost)`` or ``None``.
    """
    count = len(rows)
    selection = np.full((count, pack.n_ranks), -1, dtype=np.int64)
    objective = np.full(count, np.inf)
    found = np.zeros(count, dtype=bool)
    for i, (row, need) in enumerate(zip(rows, needed)):
        solved = step(pack.skeletons[row], float(need))
        if solved is not None:
            selection[i], objective[i] = solved
            found[i] = True
    return SearchResult(
        selection, objective, found, np.zeros(count, np.int64), np.zeros(count, bool)
    )


def milp_frontier_search(pack: SkeletonPack, rows, needed) -> SearchResult:
    """Drop-in for ``recourse_kernel.frontier_search`` backed by HiGHS.

    Solves one program at a time; a chosen set comes back as its option
    index per rank, and its cost is the MILP's objective.
    """

    def step(skeleton, need):
        solved = solve_ip_milp(skeleton, need)
        if solved is None:
            return None
        return _selection_of(skeleton, solved[0]), solved[1]

    return _one_at_a_time(pack, rows, needed, step)


def dfs_exact_step(
    skeleton: SignatureSkeleton, needed: float
) -> tuple[np.ndarray, float] | None:
    """The recursive depth-first search, as the kernel's tie-rule oracle.

    Ranks, options and ending branches follow the kernel's order, and a
    set replaces the incumbent only when strictly cheaper, so among
    equally cheap sets the first depth-first wins.  Nodes are bounded
    and pruned as the kernel does (grid bound at ``remaining -
    FEASIBILITY_TOL``, kept within ``prune_margin`` of the incumbent),
    with no seed and no node budget.  Returns ``(selection, cost)``,
    ``selection[rank]`` the option index or -1 past the branch's end,
    or ``None`` when no set covers.
    """
    n = len(skeleton.attributes)
    best = np.inf
    best_selection: np.ndarray | None = None
    selection = np.full(n, -1, dtype=np.int64)

    def recurse(k: int, cost: float, remaining: float) -> None:
        nonlocal best, best_selection
        if remaining <= FEASIBILITY_TOL and skeleton.suffix_negcost[k] == 0.0:
            # Covered, and no negative-cost option below could lower the
            # cost: the branch ends here.
            if cost < best:
                best = cost
                best_selection = selection.copy()
                best_selection[k:] = -1
            return
        if k == n:
            return
        r = remaining - FEASIBILITY_TOL
        if r > skeleton.suffix_gain[k]:
            return
        values = r * skeleton.grid - skeleton.suffix_h[k]
        at = int(np.argmax(values))
        margin = prune_margin(
            cost, best, r, skeleton.grid[at], skeleton.cost_scale, skeleton.gain_scale
        )
        if cost + float(values[at]) > best + margin:
            return
        for j, (step_cost, gain) in enumerate(
            zip(skeleton.opt_costs[k], skeleton.opt_gains[k])
        ):
            selection[k] = j
            recurse(k + 1, cost + float(step_cost), remaining - float(gain))
        selection[k] = -1

    recurse(0, 0.0, float(needed))
    if best_selection is None:
        return None
    return best_selection, float(best)


def dfs_frontier_search(pack: SkeletonPack, rows, needed) -> SearchResult:
    """Drop-in for ``recourse_kernel.frontier_search`` backed by the DFS."""
    return _one_at_a_time(pack, rows, needed, dfs_exact_step)


def _scan_rates(
    table: Table,
    positive: np.ndarray,
    attribute: str,
    context: Mapping[str, int] | None = None,
) -> list[float]:
    """Positive rate per supported code of ``attribute``, by mask scans."""
    positive = np.asarray(positive, dtype=bool)
    mask = np.ones(len(table), dtype=bool)
    for name, code in (context or {}).items():
        mask &= table.codes(name) == int(code)
    codes = table.codes(attribute)
    rates = []
    for code in range(table.column(attribute).cardinality):
        members = mask & (codes == code)
        if members.any():
            rates.append(float(positive[members].mean()))
    return rates


def scan_demographic_disparity(
    table: Table, positive: np.ndarray, protected: str
) -> float:
    """Largest gap in positive-decision rates across the groups."""
    rates = _scan_rates(table, positive, protected)
    if len(rates) < 2:
        return 0.0
    return max(rates) - min(rates)


def scan_monotonicity_violation(
    table: Table,
    positive: np.ndarray,
    attribute: str,
    context: Mapping[str, int] | None = None,
) -> float:
    """Largest drop of ``Pr(o | x, k)`` between consecutive supported codes."""
    rates = _scan_rates(table, positive, attribute, context)
    worst = 0.0
    for prev, nxt in zip(rates[:-1], rates[1:]):
        worst = max(worst, prev - nxt)
    return worst


class NxCausalDiagram:
    """The networkx-backed causal diagram, kept as the graph oracle."""

    def __init__(self, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()):
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise GraphError(f"causal diagram contains a cycle: {cycle}")
        self._graph = graph

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All attribute names in the diagram."""
        return list(self._graph.nodes)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All directed edges ``(cause, effect)``."""
        return list(self._graph.edges)

    def __contains__(self, node: str) -> bool:
        return node in self._graph

    def _require(self, *nodes: str) -> None:
        missing = [n for n in nodes if n not in self._graph]
        if missing:
            raise GraphError(f"unknown nodes {missing}; known: {self.nodes}")

    def parents(self, node: str) -> list[str]:
        """Direct causes of ``node``."""
        self._require(node)
        return sorted(self._graph.predecessors(node))

    def children(self, node: str) -> list[str]:
        """Direct effects of ``node``."""
        self._require(node)
        return sorted(self._graph.successors(node))

    def ancestors(self, node: str) -> set[str]:
        """All (possibly indirect) causes of ``node``."""
        self._require(node)
        return set(nx.ancestors(self._graph, node))

    def descendants(self, node: str) -> set[str]:
        """All variables caused (directly or indirectly) by ``node``."""
        self._require(node)
        return set(nx.descendants(self._graph, node))

    def descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of descendants over a set of nodes (the nodes excluded)."""
        out: set[str] = set()
        for node in nodes:
            out |= self.descendants(node)
        return out - set(nodes)

    def non_descendants(self, node: str) -> set[str]:
        """Variables not caused by ``node`` (``node`` itself excluded)."""
        self._require(node)
        return set(self._graph.nodes) - self.descendants(node) - {node}

    def non_descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Variables not caused by any node in ``nodes``."""
        nodes = list(nodes)
        out = set(self._graph.nodes) - set(nodes)
        for node in nodes:
            out -= self.descendants(node)
        return out

    def topological_order(self) -> list[str]:
        """A topological ordering of all nodes."""
        return list(nx.topological_sort(self._graph))

    # -- separation --------------------------------------------------------

    def d_separated(
        self, xs: Iterable[str], ys: Iterable[str], given: Iterable[str] = ()
    ) -> bool:
        """Return True iff ``xs`` and ``ys`` are d-separated by ``given``."""
        xs, ys, given = set(xs), set(ys), set(given)
        self._require(*xs, *ys, *given)
        return nx.is_d_separator(self._graph, xs, ys, given)

    def satisfies_backdoor(
        self,
        treatment: Sequence[str] | str,
        outcome: Sequence[str] | str,
        adjustment: Iterable[str],
    ) -> bool:
        """Check the backdoor criterion of ``adjustment`` w.r.t. (X, Y).

        ``adjustment`` satisfies the criterion iff (i) it contains no
        descendant of any treatment node, and (ii) it blocks every backdoor
        path — i.e. X and Y are d-separated by ``adjustment`` in the graph
        with all edges *out of* X removed.
        """
        xs = [treatment] if isinstance(treatment, str) else list(treatment)
        ys = [outcome] if isinstance(outcome, str) else list(outcome)
        zs = set(adjustment)
        self._require(*xs, *ys, *zs)
        if zs & self.descendants_of(xs):
            return False
        if zs & set(xs) or zs & set(ys):
            return False
        pruned = self._graph.copy()
        pruned.remove_edges_from([(x, c) for x in xs for c in list(pruned.successors(x))])
        ys_eff = set(ys) - set(xs)
        if not ys_eff:
            return True
        return nx.is_d_separator(pruned, set(xs), ys_eff, zs)

    def backdoor_set(
        self,
        treatment: Sequence[str] | str,
        outcome: Sequence[str] | str,
        forbidden: Iterable[str] = (),
    ) -> list[str] | None:
        """Find a backdoor adjustment set, preferring small ones.

        The parents of the treatment always satisfy the criterion in a
        Markovian diagram, so the search starts from subsets of the
        treatment's ancestors and falls back to the full parent set.
        Returns ``None`` when no admissible set avoiding ``forbidden``
        exists.
        """
        xs = [treatment] if isinstance(treatment, str) else list(treatment)
        ys = [outcome] if isinstance(outcome, str) else list(outcome)
        forbidden = set(forbidden) | set(xs) | set(ys)

        if self.satisfies_backdoor(xs, ys, ()):
            return []

        candidates = set()
        for x in xs:
            candidates |= self.ancestors(x)
        candidates -= forbidden
        candidates = sorted(candidates)

        # Greedy: grow from parents (which block all backdoor paths when
        # observable), then prune elements one at a time.
        parent_set = sorted(
            set().union(*(self.parents(x) for x in xs)) - forbidden
        )
        if not self.satisfies_backdoor(xs, ys, parent_set):
            # Parents unavailable (forbidden) — try the full candidate pool.
            if not self.satisfies_backdoor(xs, ys, candidates):
                return None
            parent_set = list(candidates)
        pruned = list(parent_set)
        for node in sorted(parent_set):
            trial = [n for n in pruned if n != node]
            if self.satisfies_backdoor(xs, ys, trial):
                pruned = trial
        return pruned

    # -- derived graphs ------------------------------------------------------

    def with_outcome(self, outcome: str, inputs: Iterable[str]) -> "NxCausalDiagram":
        """Return a diagram extended with the black box's output node.

        The decision algorithm deterministically maps its inputs to the
        outcome, so the extended diagram simply adds ``input -> outcome``
        edges. Existing nodes/edges are preserved.
        """
        edges = list(self.edges) + [(i, outcome) for i in inputs]
        return NxCausalDiagram(edges, nodes=self.nodes + [outcome])

    def subgraph(self, nodes: Iterable[str]) -> "NxCausalDiagram":
        """Return the induced subdiagram over ``nodes``."""
        nodes = list(nodes)
        self._require(*nodes)
        sub = self._graph.subgraph(nodes)
        return NxCausalDiagram(sub.edges, nodes=nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NxCausalDiagram({len(self.nodes)} nodes, {len(self.edges)} edges)"


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays, sets and Mappings to
    plain JSON types (tuples become lists, keys ``str``)."""
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def answer_json_oracle(value: Any) -> bytes:
    """An answer's compact JSON bytes: one :func:`jsonable` walk, then a
    ``json.dumps`` that ``str``-s whatever is left."""
    return json.dumps(jsonable(value), default=str, separators=(",", ":")).encode()
