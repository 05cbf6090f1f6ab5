"""Incremental monitor summaries and their rebuild-parity oracle.

A monitor's summary is a small dict of floats computed from the engine's
*incrementally maintained* state — count tensors kept current by
``ContingencyEngine.apply_delta`` in O(|delta|) per batch — never from a
row scan. Four kinds:

``score``
    NEC / SUF / NESUF of one pinned ``attribute: value`` vs ``baseline``
    contrast (optionally inside a context), via the batched
    :meth:`ScoreEstimator.score_arrays` tensor path.
``fairness``
    Max NEC / SUF over all ordered value pairs of a protected attribute
    plus the observational demographic disparity from the
    ``(attribute, outcome)`` count tensor.
``monotonicity``
    Worst step-down and violating-step count of the conditional positive
    rate along the attribute's value order, from the same count tensor.
``recourse``
    Feasibility rate (and cost stats) of a fixed probe cohort through
    the recourse solver — the "can the affected still act?" monitor.

The parity contract: :func:`compute_summary` over a live, delta-updated
session must be **bit-identical** to :func:`rebuild_summary`, which
recomputes the identical quantities on a *fresh* estimator built from
the current table. Count tensors after ``apply_delta`` equal a fresh
recount exactly (integer counts — property-tested since PR 2), and every
summary here is a deterministic function of those counts, so the
contract holds with ``==``, not tolerances. This is the
answering-queries-under-updates discipline (arXiv 1702.08764):
explanations as standing queries whose refresh is constant-delay in the
update, with the from-scratch evaluation as the correctness oracle.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.fairness import (
    demographic_disparity_from_counts,
    group_outcome_counts,
)
from repro.core.monotonicity import monotonicity_from_counts
from repro.core.recourse import RecourseSolver
from repro.core.scores import SCORE_KINDS, ScoreEstimator

MONITOR_KINDS = ("score", "fairness", "monotonicity", "recourse")

#: the summary keys each kind produces; the first is the default metric
#: a drift detector tracks.
METRICS = {
    "score": ("necessity", "sufficiency", "necessity_sufficiency"),
    "fairness": ("max_necessity", "max_sufficiency", "demographic_disparity"),
    "monotonicity": ("worst_step_down", "violations"),
    "recourse": (
        "feasibility_rate",
        "feasible",
        "infeasible",
        "already_satisfied",
        "mean_cost",
    ),
}

#: default probe-cohort size for recourse monitors (capped — the probe
#: is re-solved on every refresh).
DEFAULT_PROBE_SIZE = 32
MAX_PROBE_SIZE = 256


def _object(payload: Mapping, key: str) -> dict:
    """``payload[key]`` as a dict; absent or empty reads as ``{}``."""
    value = payload.get(key) or {}
    if not isinstance(value, Mapping):
        raise ValueError(f"{key!r} must be an object, got {value!r}")
    return dict(value)


def _number(value, what: str, kind: type = float):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a number, got {value!r}") from exc


def _known_attribute(data, params: Mapping, kind: str) -> str:
    attribute = params.get("attribute")
    if not isinstance(attribute, str) or attribute not in data:
        raise ValueError(f"{kind} monitor needs a known attribute, got {attribute!r}")
    return attribute


def encode_spec(lewis, payload: Mapping) -> dict:
    """Validate a registration payload and freeze it into code space.

    Labels are encoded against the current domains *once*, at
    registration, so every later refresh is pure code-space arithmetic
    (and a relabeled request cannot drift the monitored quantity).
    Returns the JSON-safe spec dict the journal records. Raises
    ``ValueError`` / ``KeyError`` / ``DomainError`` on bad payloads —
    the service maps all three to 400s.
    """
    kind = payload.get("kind")
    if kind not in MONITOR_KINDS:
        raise ValueError(
            f"monitor kind must be one of {MONITOR_KINDS}, got {kind!r}"
        )
    params = _object(payload, "params")
    metric = payload.get("metric") or METRICS[kind][0]
    if metric not in METRICS[kind]:
        raise ValueError(
            f"metric {metric!r} not produced by kind {kind!r}; "
            f"options: {METRICS[kind]}"
        )
    spec: dict = {
        "kind": kind,
        "metric": str(metric),
        "threshold": (
            _number(payload["threshold"], "threshold")
            if payload.get("threshold") is not None
            else None
        ),
        "cusum": _object(payload, "cusum") or None,
        "params": params,
    }
    data = lewis.data
    if kind == "score":
        attribute = _known_attribute(data, params, kind)
        if "value" not in params or "baseline" not in params:
            raise ValueError("score monitor needs 'value' and 'baseline' params")
        col = data.column(attribute)
        treatment = col.lenient_code_of(params["value"])
        baseline = col.lenient_code_of(params["baseline"])
        if treatment == baseline:
            raise ValueError("value and baseline encode to the same code")
        spec["coded"] = {
            "attribute": str(attribute),
            "treatment": treatment,
            "baseline": baseline,
            "context": {
                str(n): data.column(n).lenient_code_of(v)
                for n, v in _object(params, "context").items()
            },
        }
    elif kind in ("fairness", "monotonicity"):
        attribute = _known_attribute(data, params, kind)
        spec["coded"] = {
            "attribute": str(attribute),
            "context": {
                str(n): data.column(n).lenient_code_of(v)
                for n, v in _object(params, "context").items()
            },
        }
    else:  # recourse
        actionable = params.get("actionable")
        if (
            not isinstance(actionable, (list, tuple))
            or not actionable
            or not all(isinstance(a, str) for a in actionable)
        ):
            raise ValueError("recourse monitor needs a non-empty actionable list")
        missing = [a for a in actionable if a not in data]
        if missing:
            raise KeyError(f"actionable attributes not in the data: {missing}")
        alpha = _number(params.get("alpha", 0.8), "alpha")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if params.get("indices") is not None:
            if not isinstance(params["indices"], (list, tuple)):
                raise ValueError("indices must be a list of row indices")
            indices = [_number(i, "indices", int) for i in params["indices"]]
        else:
            size = _number(
                params.get("probe_size", DEFAULT_PROBE_SIZE), "probe_size", int
            )
            size = min(size, MAX_PROBE_SIZE)
            if size < 1:
                raise ValueError(f"probe_size must be positive, got {size}")
            indices = [int(i) for i in lewis.negative_indices()[:size]]
        if not indices:
            raise ValueError(
                "recourse monitor probe cohort is empty (no negative rows?)"
            )
        n = len(data)
        bad = [i for i in indices if not 0 <= i < n]
        if bad:
            raise IndexError(f"probe indices outside [0, {n}): {bad}")
        # Freeze the probe as full code rows: the cohort the monitor
        # tracks stays fixed even as deltas insert/delete table rows.
        probe = [
            {str(k): int(v) for k, v in data.row_codes(i).items()}
            for i in indices
        ]
        spec["coded"] = {
            "actionable": [str(a) for a in actionable],
            "alpha": alpha,
            "probe": probe,
        }
    return spec


def _conditional_outcome_counts(
    engine, attribute: str, context: Mapping[str, int], outcome: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(positives, totals)`` per code of ``attribute`` inside ``context``."""
    if not context:
        return group_outcome_counts(engine, attribute, outcome)
    names = tuple(sorted({attribute, outcome, *context}))
    tensor = np.asarray(engine.tensor(names))
    index = tuple(
        int(context[n]) if n in context else slice(None) for n in names
    )
    sub = tensor[index]
    remaining = [n for n in names if n not in context]
    sub = np.moveaxis(
        sub, (remaining.index(attribute), remaining.index(outcome)), (0, 1)
    )
    return sub[:, 1], sub.sum(axis=1)


def _summarize(
    estimator: ScoreEstimator,
    spec: Mapping,
    solver_for: Callable[[Sequence[str]], RecourseSolver],
) -> dict[str, float]:
    """One summary pass against an arbitrary estimator/solver pair."""
    kind = spec["kind"]
    coded = spec["coded"]
    if kind == "score":
        attribute = coded["attribute"]
        arrays = estimator.score_arrays(
            [({attribute: coded["treatment"]}, {attribute: coded["baseline"]})],
            coded.get("context") or {},
        )
        return {k: float(arrays[k][0]) for k in SCORE_KINDS}
    if kind == "fairness":
        attribute = coded["attribute"]
        card = estimator._features.column(attribute).cardinality
        pairs = [
            ({attribute: hi}, {attribute: lo})
            for hi in range(card)
            for lo in range(hi)
        ]
        out = {"max_necessity": 0.0, "max_sufficiency": 0.0}
        if pairs:
            arrays = estimator.score_arrays(
                pairs, kinds=("necessity", "sufficiency")
            )
            out["max_necessity"] = float(arrays["necessity"].max())
            out["max_sufficiency"] = float(arrays["sufficiency"].max())
        positives, totals = group_outcome_counts(
            estimator.engine, attribute, estimator._outcome
        )
        out["demographic_disparity"] = demographic_disparity_from_counts(
            positives, totals
        )
        return out
    if kind == "monotonicity":
        positives, totals = _conditional_outcome_counts(
            estimator.engine,
            coded["attribute"],
            coded.get("context") or {},
            estimator._outcome,
        )
        worst, violations = monotonicity_from_counts(positives, totals)
        return {"worst_step_down": worst, "violations": float(violations)}
    # recourse
    solver = solver_for(coded["actionable"])
    results = solver.solve_batch(
        coded["probe"], alpha=float(coded["alpha"]), on_infeasible="none"
    )
    n = len(results)
    feasible = [r for r in results if r is not None]
    costs = [r.total_cost for r in feasible if not r.is_empty]
    return {
        "feasibility_rate": len(feasible) / n if n else 1.0,
        "feasible": float(len(feasible)),
        "infeasible": float(n - len(feasible)),
        "already_satisfied": float(sum(r.is_empty for r in feasible)),
        "mean_cost": float(np.mean(costs)) if costs else 0.0,
    }


def compute_summary(lewis, spec: Mapping) -> dict[str, float]:
    """The monitor's summary from the live session's incremental state."""
    return _summarize(
        lewis.estimator, spec, lambda actionable: lewis._recourse_solver(actionable, None)
    )


def rebuild_summary(lewis, spec: Mapping) -> dict[str, float]:
    """The same summary from a from-scratch rebuild — the parity oracle.

    Re-predicts the positive-decision vector over the session's
    *current* table (the O(n) model-inference pass the incremental path
    replaces with O(|delta|) predictions on inserted rows) and builds a
    fresh :class:`ScoreEstimator` (fresh contingency engine, fresh
    counts) on top, then recomputes the identical quantities.
    ``compute_summary(lewis, spec) == rebuild_summary(lewis, spec)`` bit
    for bit is the subsystem's correctness contract — it covers the
    maintained predictions as well as the maintained counts; it is also
    the recompute-per-batch straw man the benchmark races the
    incremental path against.
    """
    est = lewis.estimator
    positive = np.asarray(lewis.predict_positive(est._features), dtype=bool)
    fresh = ScoreEstimator(est._features, positive, diagram=est.diagram)
    return _summarize(
        fresh, spec, lambda actionable: RecourseSolver(fresh, list(actionable))
    )


__all__ = [
    "DEFAULT_PROBE_SIZE",
    "METRICS",
    "MONITOR_KINDS",
    "compute_summary",
    "encode_spec",
    "rebuild_summary",
]
