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
differences. After solving, the recourse is re-scored with the exact
estimator and, when the IP's linear surrogate proves too optimistic, the
threshold is tightened and the IP re-solved (a standard cut loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core import recourse_kernel
from repro.core.recourse_kernel import (
    ENGINES,
    MODES,
    adaptive_chunk_size,
    solve_chunk,
)
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.estimation.logit import LogitModel
from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.opt.parametric import SignatureSkeleton
from repro.utils import deadline as _deadline
from repro.utils.exceptions import RecourseInfeasibleError
from repro.utils.validation import check_probability

CostFn = Callable[[str, int, int], float]

_SOLVER_SIGNATURE_SOLVES = _obs.get_registry().counter(
    "repro_solver_signature_solves_total",
    "Distinct signature solves run by recourse solvers.",
)
_SOLVER_SEARCH_NODES = _obs.get_registry().counter(
    "repro_solver_search_nodes_total",
    "Exact-search nodes expanded across signature solves.",
)
_SOLVER_CERTIFIED = _obs.get_registry().counter(
    "repro_solver_certified_total",
    "Signature solves certified optimal by the LP root bound.",
)
_SOLVER_DONOR_SEEDED = _obs.get_registry().counter(
    "repro_solver_donor_seeded_total",
    "Exact searches warm-started from a donor incumbent.",
)
_SOLVER_PARALLEL_BATCHES = _obs.get_registry().counter(
    "repro_solver_parallel_batches_total",
    "Batch solves dispatched to the process pool.",
)
_SOLVER_POOL_FAILURES = _obs.get_registry().counter(
    "repro_solver_pool_failures_total",
    "Process-pool attempts lost to crashed workers or timeouts.",
)
_SOLVER_POOL_FALLBACKS = _obs.get_registry().counter(
    "repro_solver_pool_fallbacks_total",
    "Batch solves completed inline after the pool failed twice.",
)
_SOLVER_CHUNK_SECONDS = _obs.get_registry().histogram(
    "repro_solver_chunk_seconds",
    "Wall time of one signature chunk solve (inline or pool worker).",
)

#: cap on the cross-request warm-start donor pool a solver retains (and
#: exports into snapshots) — donors are tiny dicts, but the pool rides
#: along in every chunk payload, so it stays bounded.
DONOR_POOL_LIMIT = 256


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


class RecourseSolver:
    """Builds and solves the recourse IP for one population.

    Parameters
    ----------
    estimator:
        Score estimator over the black box's input-output table.
    actionable:
        Attribute names a recourse may change.
    cost_fn:
        ``cost_fn(attribute, current_code, new_code) -> float``; defaults
        to :func:`unit_step_cost`.
    engine:
        ``"parametric"`` (default) solves each signature program with
        cached parametric-dual bounds, greedy certificates and a
        warm-started exact search; ``"milp"`` keeps the scipy/HiGHS
        route as an independent oracle for parity testing.
    max_nodes:
        Node budget per signature search (both engines).
    """

    #: minimum number of unsolved signatures before ``workers > 1``
    #: actually spawns a process pool — below this the pool's start-up
    #: cost exceeds the solve time, so the chunks run inline instead
    #: (with identical results either way).
    parallel_threshold = 128

    #: wall-clock budget for one pool attempt (``None`` = unbounded).
    #: A hung worker then surfaces as a timeout instead of wedging the
    #: batch; the request's deadline, when tighter, takes precedence.
    pool_timeout_s: float | None = None

    def __init__(
        self,
        estimator: ScoreEstimator,
        actionable: Sequence[str],
        cost_fn: CostFn | None = None,
        engine: str = "parametric",
        max_nodes: int = 200_000,
    ):
        if not actionable:
            raise ValueError("actionable set must not be empty")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self._est = estimator
        self.actionable = list(actionable)
        self.cost_fn = cost_fn or unit_step_cost
        self.engine = engine
        self.max_nodes = int(max_nodes)
        table = estimator.table
        missing = [a for a in self.actionable if a not in table]
        if missing:
            raise KeyError(f"actionable attributes not in the data: {missing}")
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
        self._logit = LogitModel(self.actionable, context_names)
        self._logit.fit(table.select(feature_names), estimator._positive)
        #: per-attribute log-odds vectors, read once instead of one
        #: ``coefficient()`` call per (attribute, code) per program
        self._coef_vectors = {
            a: self._logit.coefficient_vector(a) for a in self.actionable
        }
        #: program skeletons keyed by the actionable current-code tuple —
        #: variables, costs, gains and exclusivity rows depend only on it
        self._structures: dict[tuple[int, ...], list[tuple]] = {}
        #: solve-ready skeletons (parametric grids, option orderings)
        #: derived from the structures, same key
        self._skeletons: dict[tuple[int, ...], SignatureSkeleton] = {}
        #: picklable skeleton payloads shipped to worker processes
        self._skeleton_payloads: dict[tuple[int, ...], dict] = {}
        #: solved recourses memoised by (signature, alpha, max_refinements,
        #: mode); distinct individuals sharing (current codes, context)
        #: share the answer
        self._solutions: dict[tuple, Recourse | RecourseInfeasibleError] = {}
        #: cross-request warm-start donors: actionable current-code tuple
        #: -> a solved action set for that signature. Donors only seed
        #: exact-search upper bounds (never answers), so the pool can be
        #: safely carried across updates, requests and snapshot restores.
        self._donor_pool: dict[tuple[int, ...], dict[str, int]] = {}
        #: cumulative kernel counters (searches, certificates, warm starts)
        self._counters = {
            "signature_solves": 0,
            "certified_by_lp_bound": 0,
            "donor_seeded_searches": 0,
            "search_nodes": 0,
            "parallel_batches": 0,
            "pool_failures": 0,
            "pool_fallbacks": 0,
        }

    # -- IP construction ---------------------------------------------------

    def _current_key(self, current: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(int(current[a]) for a in self.actionable)

    def _program_structure(
        self, current: Mapping[str, int]
    ) -> list[tuple[str, list[tuple[tuple, float, float]]]]:
        """Variables, costs and linearised gains for one current-code tuple.

        Returns ``[(attribute, [(name, cost, gain), ...]), ...]``; the
        per-attribute exclusivity constraint is implied by the grouping.
        Cached: a cohort's individuals mostly collide on their actionable
        codes, so the coefficient/cost assembly runs once per distinct
        tuple instead of once per row.
        """
        key = self._current_key(current)
        cached = self._structures.get(key)
        if cached is not None:
            return cached
        table = self._est.table
        structure = []
        for attribute in self.actionable:
            col = table.column(attribute)
            cur = int(current[attribute])
            gains = self._coef_vectors[attribute]
            entries = [
                (
                    (attribute, code),
                    self.cost_fn(attribute, cur, code),
                    float(gains[code] - gains[cur]),
                )
                for code in range(col.cardinality)
                if code != cur
            ]
            structure.append((attribute, entries))
        self._structures[key] = structure
        return structure

    def _skeleton(self, current: Mapping[str, int]) -> SignatureSkeleton:
        """Solve-ready skeleton for one current-code mapping (cached)."""
        return self._skeleton_for_key(self._current_key(current))

    def _skeleton_for_key(self, key: tuple[int, ...]) -> SignatureSkeleton:
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            skeleton = SignatureSkeleton.from_payload(self._skeleton_payload(key))
            self._skeletons[key] = skeleton
        return skeleton

    def _program_shape(self, key: tuple[int, ...]) -> tuple[int, int]:
        """(n_constraints, n_variables) of a signature program, sans solve."""
        payload = self._skeleton_payload(key)
        n_variables = sum(len(codes) for codes in payload["codes"])
        n_constraints = sum(len(codes) > 0 for codes in payload["codes"]) + 1
        return n_constraints, n_variables

    def _skeleton_payload(self, key: tuple[int, ...]) -> dict:
        """Picklable skeleton payload for one current-code tuple (cached)."""
        payload = self._skeleton_payloads.get(key)
        if payload is None:
            structure = self._program_structure(dict(zip(self.actionable, key)))
            payload = {
                "attributes": list(self.actionable),
                "current": key,
                "codes": [
                    [int(name[1]) for name, _, _ in entries]
                    for _, entries in structure
                ],
                "costs": [
                    [float(cost) for _, cost, _ in entries]
                    for _, entries in structure
                ],
                "gains": [
                    [float(gain) for _, _, gain in entries]
                    for _, entries in structure
                ],
            }
            self._skeleton_payloads[key] = payload
        return payload

    # -- warm-start donor pool ---------------------------------------------

    def _note_donor(self, key: tuple[int, ...], chosen: Mapping[str, int]) -> None:
        """Remember one solved action set as a future warm-start donor."""
        if key not in self._donor_pool and len(self._donor_pool) < DONOR_POOL_LIMIT:
            self._donor_pool[key] = {a: int(c) for a, c in chosen.items()}

    def _nearest_donors(self, key: tuple[int, ...]) -> list[dict[str, int]]:
        """The pool donor nearest to ``key`` in Hamming distance, if any."""
        if not self._donor_pool:
            return []
        keys = list(self._donor_pool)
        distances = (np.array(keys) != np.array(key)).sum(axis=1)
        return [self._donor_pool[keys[int(np.argmin(distances))]]]

    def _donor_entries(self) -> list[dict]:
        """The pool as plain ``{"key", "chosen"}`` payload entries."""
        return [
            {"key": list(key), "chosen": dict(chosen)}
            for key, chosen in self._donor_pool.items()
        ]

    def export_donor_pool(self) -> list[dict]:
        """JSON-safe donor pool for persistence (see :mod:`repro.store`).

        Entries carry the signature's current codes as an attribute-keyed
        mapping (not a positional tuple) so a solver constructed with the
        same attributes in a different order — or restored in another
        process — can re-key them against its own layout.
        """
        return [
            {
                "current": {
                    a: int(c) for a, c in zip(self.actionable, key)
                },
                "chosen": dict(chosen),
            }
            for key, chosen in self._donor_pool.items()
        ]

    def seed_donor_pool(self, entries: Sequence[Mapping]) -> int:
        """Load exported donor entries; returns how many were accepted.

        Entries whose ``current`` mapping does not cover this solver's
        actionable set are skipped (a pool exported for a different
        actionable set is simply not applicable).
        """
        accepted = 0
        for entry in entries:
            current = entry.get("current") or {}
            if any(a not in current for a in self.actionable):
                continue
            key = tuple(int(current[a]) for a in self.actionable)
            chosen = {
                str(a): int(c) for a, c in (entry.get("chosen") or {}).items()
            }
            if chosen:
                before = len(self._donor_pool)
                self._note_donor(key, chosen)
                accepted += len(self._donor_pool) > before
        return accepted

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        row_codes: Mapping[str, int],
        alpha: float = 0.8,
        max_refinements: int = 4,
        mode: str = "exact",
    ) -> Recourse:
        """Compute minimal-cost recourse for one individual.

        ``alpha`` is the target sufficiency; Eq. (28) converts it into the
        probability threshold ``Pr(o|a,k) + alpha * Pr(o'|a,k)``. Raises
        :class:`RecourseInfeasibleError` when no intervention on the
        actionable set achieves it.  ``mode="anytime"`` returns the
        greedy LP rounding with a certified ``optimality_gap`` instead
        of the exact optimum.
        """
        check_probability(alpha, "alpha")
        _check_mode(mode)
        context = {n: int(row_codes[n]) for n in self.context_names}
        current = {a: int(row_codes[a]) for a in self.actionable}
        key = self._current_key(current)
        base_logit = float(self._logit.score_codes({**current, **context}))
        result = recourse_kernel.solve_signature(
            self._skeleton(current),
            base_logit,
            alpha,
            max_refinements,
            mode=mode,
            engine=self.engine,
            node_limit=self.max_nodes,
            donors=self._nearest_donors(key),
        )
        self._absorb_stats(result)
        if result["status"] == "ok" and result["chosen"]:
            self._note_donor(key, result["chosen"])
        return self._materialize(result, current, alpha, mode)

    def _materialize(
        self,
        result: Mapping[str, Any],
        current: Mapping[str, int],
        alpha: float,
        mode: str,
    ) -> Recourse:
        """Turn a kernel result dict into a :class:`Recourse` (or raise)."""
        if result["status"] == "infeasible":
            if result["reason"] == "no_candidates":
                # No candidate action exists (all actionable attributes
                # are stuck at their only value) and the threshold is not
                # yet met: provably infeasible.
                raise RecourseInfeasibleError(
                    f"no candidate values on {self.actionable} and the "
                    f"target probability is not met"
                )
            raise RecourseInfeasibleError(
                f"no intervention on {self.actionable} reaches sufficiency {alpha}"
            )
        if result["status"] == "empty":
            # Constraint (25) already holds with delta = 0: the paper's
            # "no action is taken" case.
            return Recourse(
                actions=(),
                total_cost=0.0,
                estimated_sufficiency=1.0,
                estimated_probability=result["probability"],
                threshold=result["probability"],
                n_constraints=0,
                n_variables=0,
                optimality_gap=0.0,
                mode=mode,
            )
        n_constraints, n_variables = self._program_shape(self._current_key(current))
        new_codes = dict(current)
        for attribute in self.actionable:
            if attribute in result["chosen"]:
                new_codes[attribute] = int(result["chosen"][attribute])
        actions = self._actions(self._est.table, current, new_codes)
        return Recourse(
            actions=actions,
            total_cost=float(result["objective"]),
            estimated_sufficiency=result["sufficiency"],
            estimated_probability=result["probability"],
            threshold=result["threshold"],
            n_constraints=n_constraints,
            n_variables=n_variables,
            optimality_gap=float(result["gap"]),
            mode=mode,
        )

    def _absorb_stats(self, result: Mapping[str, Any]) -> None:
        stats = result.get("stats", {})
        self._counters["signature_solves"] += 1
        self._counters["certified_by_lp_bound"] += stats.get("certified", 0)
        self._counters["donor_seeded_searches"] += stats.get("donor_seeded", 0)
        self._counters["search_nodes"] += stats.get("nodes", 0)
        if _obs.enabled():
            _SOLVER_SIGNATURE_SOLVES.inc()
            _SOLVER_CERTIFIED.inc(stats.get("certified", 0))
            _SOLVER_DONOR_SEEDED.inc(stats.get("donor_seeded", 0))
            _SOLVER_SEARCH_NODES.inc(stats.get("nodes", 0))

    @staticmethod
    def _ingest_chunk(chunk: Any) -> list[dict]:
        """Unwrap one :func:`solve_chunk` return value.

        When the chunk payload carried a trace context the kernel hands
        back an envelope with its own wall timing (measured inside the
        worker process); replay it into the request trace and feed the
        chunk-solve histogram.  Plain-list returns pass through.
        """
        if not isinstance(chunk, Mapping):
            return chunk
        span = chunk["span"]
        _SOLVER_CHUNK_SECONDS.observe(span["duration_ms"] / 1e3)
        _tracing.record_span(
            span["trace"],
            span["name"],
            span["duration_ms"],
            started_unix=span["started_unix"],
            tags=span["tags"],
        )
        return chunk["results"]

    def solve_batch(
        self,
        rows_codes: Sequence[Mapping[str, int]],
        alpha: float = 0.8,
        max_refinements: int = 4,
        on_infeasible: str = "raise",
        workers: int | None = None,
        mode: str = "exact",
        mp_context: str | None = None,
    ) -> list[Recourse | None]:
        """Minimal-cost recourse for a whole cohort.

        Equivalent to ``[self.solve(row, alpha) for row in rows_codes]``
        but amortised: base log-odds for every row are scored through
        the logit model in *one* matrix pass; individuals are grouped by
        their ``(current actionable codes, context)`` signature so each
        distinct 0-1 program is solved once (categorical cohorts collide
        heavily); solved signatures are memoised across calls keyed by
        ``(signature, alpha, max_refinements, mode)``; and within a
        batch, each signature's search is warm-started from the nearest
        (Hamming distance on actionable codes) already-solved neighbour.

        ``workers > 1`` partitions the unsolved signatures into
        fixed-size chunks and solves them on a ``ProcessPoolExecutor``.
        Chunk boundaries, item order and warm-start neighbourhoods never
        depend on the worker count, so the results are bit-identical to
        the serial path — ``workers`` is purely a wall-clock knob (and
        small batches below :attr:`parallel_threshold` stay inline,
        where a pool could only lose).  ``mp_context`` forces a
        multiprocessing start method (default: ``fork`` where available,
        else ``spawn``; payloads are spawn-safe plain data either way).

        ``on_infeasible`` is ``"raise"`` (first infeasible individual
        aborts the batch, mirroring the scalar loop) or ``"none"``
        (infeasible rows yield ``None`` — the cohort-audit mode).
        """
        check_probability(alpha, "alpha")
        _check_mode(mode)
        if on_infeasible not in ("raise", "none"):
            raise ValueError(
                f"on_infeasible must be 'raise' or 'none', got {on_infeasible!r}"
            )
        if workers is not None and int(workers) < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
        rows_codes = list(rows_codes)
        if not rows_codes:
            return []
        _deadline.check("recourse solve_batch")
        names = self.actionable + self.context_names
        matrix = np.array(
            [[int(row[name]) for name in names] for row in rows_codes],
            dtype=np.int64,
        )
        signatures, inverse = np.unique(matrix, axis=0, return_inverse=True)
        # The memo key includes the refinement budget and mode: a
        # signature found infeasible under a small budget may become
        # feasible with more threshold refinements, and an anytime
        # answer must never be served where an exact one was asked.
        need = [
            i
            for i, signature in enumerate(map(tuple, signatures))
            if (signature, alpha, max_refinements, mode) not in self._solutions
        ]
        if need:
            # np.unique sorts signatures lexicographically with the
            # actionable codes leading, so consecutive unsolved items
            # are natural warm-start neighbours.
            base_logits = self._logit.score_codes_batch(signatures[need])
            items = []
            for base_logit, i in zip(base_logits, need):
                signature = tuple(int(c) for c in signatures[i])
                key = signature[: len(self.actionable)]
                self._skeleton_payload(key)  # ensure cached
                items.append(
                    {
                        "key": key,
                        "signature": signature,
                        "base_logit": float(base_logit),
                    }
                )
            # Every chunk sees the same pre-batch donor snapshot, so the
            # warm starts a chunk receives never depend on which worker
            # ran a sibling chunk first.
            donors = self._donor_entries()
            # The caller's trace context rides in every chunk payload as
            # plain data so pool workers can time themselves for the trace.
            trace_ctx = _tracing.current_context()
            chunk_size = adaptive_chunk_size(len(items), workers)
            payloads = []
            for start in range(0, len(items), chunk_size):
                chunk = items[start : start + chunk_size]
                payload = {
                    "skeletons": {
                        key: self._skeleton_payloads[key]
                        for key in {item["key"] for item in chunk}
                    },
                    "items": [
                        {"key": item["key"], "base_logit": item["base_logit"]}
                        for item in chunk
                    ],
                    "alpha": float(alpha),
                    "max_refinements": int(max_refinements),
                    "mode": mode,
                    "engine": self.engine,
                    "node_limit": self.max_nodes,
                    "donors": donors,
                }
                if trace_ctx is not None:
                    payload["trace"] = trace_ctx
                payloads.append(payload)
            use_pool = (
                workers is not None
                and int(workers) > 1
                and len(payloads) > 1
                and len(items) >= self.parallel_threshold
            )
            chunk_results = None
            if use_pool:
                chunk_results = self._run_chunks_parallel(
                    payloads, int(workers), mp_context
                )
                self._counters["parallel_batches"] += 1
                if _obs.enabled():
                    _SOLVER_PARALLEL_BATCHES.inc()
            if chunk_results is None:
                # The serial path — and the containment path: when the
                # pool died twice (crashed workers, timeouts), the same
                # payloads run inline through the same solve_chunk, so
                # the fallback is bit-identical to serial by construction.
                if use_pool:
                    _deadline.check("recourse pool fallback")
                chunk_results = []
                for payload in payloads:
                    _deadline.check("recourse chunk solve")
                    chunk_results.append(
                        solve_chunk(
                            payload,
                            skeletons={
                                key: self._skeleton_for_key(key)
                                for key in payload["skeletons"]
                            },
                        )
                    )
            chunk_results = [self._ingest_chunk(c) for c in chunk_results]
            with _tracing.span("recourse_merge", tags={"signatures": len(items)}):
                for item, result in zip(
                    items, (r for chunk in chunk_results for r in chunk)
                ):
                    self._absorb_stats(result)
                    if result["status"] == "ok" and result["chosen"]:
                        self._note_donor(item["key"], result["chosen"])
                    current = dict(zip(self.actionable, item["key"]))
                    try:
                        solved = self._materialize(result, current, alpha, mode)
                    except RecourseInfeasibleError as exc:
                        solved = exc
                    self._solutions[
                        (item["signature"], alpha, max_refinements, mode)
                    ] = solved
        out: list[Recourse | None] = []
        for row_index, unique_index in enumerate(inverse):
            signature = tuple(int(c) for c in signatures[unique_index])
            solved = self._solutions[(signature, alpha, max_refinements, mode)]
            if isinstance(solved, RecourseInfeasibleError):
                if on_infeasible == "raise":
                    raise RecourseInfeasibleError(
                        f"row {row_index}: {solved}"
                    ) from solved
                out.append(None)
            else:
                out.append(solved)
        return out

    def _run_chunks_parallel(
        self, payloads: list[dict], workers: int, mp_context: str | None
    ) -> list[list[dict] | dict] | None:
        """Map :func:`solve_chunk` over payloads on a process pool.

        Failure containment: a crashed worker (``BrokenProcessPool``),
        a worker exceeding :attr:`pool_timeout_s` / the request deadline,
        or a pool that cannot even start gets **one bounded retry** on a
        fresh pool; if that fails too, returns ``None`` so the caller
        runs the identical payloads inline — results are bit-identical
        either way, only wall-clock differs.  Returning ``None`` instead
        of raising keeps the policy (fallback) out of the mechanism.
        """
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        method = mp_context or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        context = mp.get_context(method)
        for _attempt in range(2):  # first try + one bounded retry
            timeout = self.pool_timeout_s
            remaining = _deadline.remaining_s()
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
                if timeout <= 0:
                    _deadline.check("recourse pool dispatch")
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(payloads)), mp_context=context
            )
            try:
                # pool.map preserves payload order: the merge is deterministic.
                results = list(pool.map(solve_chunk, payloads, timeout=timeout))
                pool.shutdown(wait=True)
                return results
            except (BrokenProcessPool, TimeoutError, OSError):
                # don't block on possibly-hung workers during teardown
                pool.shutdown(wait=False, cancel_futures=True)
                self._counters["pool_failures"] += 1
                if _obs.enabled():
                    _SOLVER_POOL_FAILURES.inc()
        self._counters["pool_fallbacks"] += 1
        if _obs.enabled():
            _SOLVER_POOL_FALLBACKS.inc()
        return None

    def solution_memo_stats(self) -> dict:
        """Size and solve counters of the signature-keyed caches."""
        infeasible = sum(
            isinstance(v, RecourseInfeasibleError)
            for v in self._solutions.values()
        )
        return {
            "solved_signatures": len(self._solutions),
            "infeasible_signatures": infeasible,
            "program_skeletons": len(self._structures),
            "donor_pool": len(self._donor_pool),
            **self._counters,
        }

    def _actions(
        self,
        table: Table,
        current: Mapping[str, int],
        new_codes: Mapping[str, int],
    ) -> list[RecourseAction]:
        actions = []
        for attribute, code in new_codes.items():
            if code == current[attribute]:
                continue
            categories = table.column(attribute).categories
            actions.append(
                RecourseAction(
                    attribute=attribute,
                    current_value=categories[current[attribute]],
                    new_value=categories[code],
                    # The solver's objective priced this move through
                    # cost_fn; the reported per-action cost must agree.
                    cost=float(self.cost_fn(attribute, current[attribute], code)),
                )
            )
        return actions
