"""Long-lived explainer sessions: the core of the serving layer.

A :class:`~repro.core.lewis.Lewis` object is expensive to build (model
predictions over the population, ordering inference, tensor warm-up) and
cheap to query — exactly the shape of a *session*: build once, serve
many requests.  :class:`ExplainerSession` owns one model + ``Lewis`` +
contingency engine and exposes every explanation type as a typed
request object:

* :class:`GlobalExplainRequest` / :class:`ContextExplainRequest` —
  population / sub-population rankings,
* :class:`LocalExplainRequest` — one individual's contributions,
* :class:`LocalExplainBatchRequest` — a whole cohort's contributions in
  a few deduplicated matrix passes,
* :class:`RecourseRequest` — minimal-cost intervention,
* :class:`RecourseBatchRequest` — cohort recourse audit with one IP
  solve per distinct (current codes, context) signature,
* :class:`AuditRequest` — counterfactual-fairness verdicts,
* :class:`ScoresRequest` — raw NEC/SUF/NESUF triples for ad-hoc
  contrasts,
* :class:`UpdateRequest` — a :class:`~repro.service.updates.TableDelta`
  against the live table.

``handle(request)`` answers from the byte-bounded result cache when the
(model fingerprint, table version, canonical query) key hits; misses are
routed through the session's :class:`~repro.service.scheduler
.MicroBatcher`, whose single dispatch thread is the only code that
touches the engine — concurrent requests coalesce into batched engine
passes *and* the session is thread-safe by construction.  Updates flow
through the same dispatch lane, so reads and writes serialize without a
global lock; afterwards only the cache entries keyed to superseded table
versions are purged.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.explanations import GlobalExplanation, LocalExplanation
from repro.core.fairness import FairnessAuditor, FairnessVerdict
from repro.core.lewis import Lewis
from repro.core.recourse import Recourse
from repro.data.table import Column
from repro.obs import metrics as _obs
from repro.service.cache import ResultCache
from repro.service.scheduler import MicroBatcher
from repro.service.updates import TableDelta, apply_delta
from repro.utils import deadline as _deadline
from repro.utils.exceptions import DomainError


# ---------------------------------------------------------------------------
# JSON plumbing


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so ``json.dumps`` works.

    Answers leave the session through one pass of it, in
    :meth:`ExplainerSession.handle`; the ``*_to_dict`` views below build
    raw dicts and leave the conversion to that pass.
    """
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def global_explanation_to_dict(explanation: GlobalExplanation) -> dict:
    """Dict view of a global/contextual explanation."""
    return {
        "context": explanation.context,
        "attributes": [
            {
                "attribute": s.attribute,
                "necessity": s.necessity,
                "sufficiency": s.sufficiency,
                "necessity_sufficiency": s.necessity_sufficiency,
                "best_pair_necessity": s.best_pair_necessity,
                "best_pair_sufficiency": s.best_pair_sufficiency,
                "best_pair_nesuf": s.best_pair_nesuf,
            }
            for s in explanation.attribute_scores
        ],
        "ranking": explanation.ranking(),
        "statements": explanation.statements(),
    }


def local_explanation_to_dict(explanation: LocalExplanation) -> dict:
    """Dict view of a local explanation."""
    return {
        "individual": explanation.individual,
        "outcome_positive": explanation.outcome_positive,
        "contributions": [
            {
                "attribute": c.attribute,
                "value": c.value,
                "positive": c.positive,
                "negative": c.negative,
                "net": c.net,
                "negative_foil": c.negative_foil,
                "positive_foil": c.positive_foil,
            }
            for c in explanation.contributions
        ],
        "statements": explanation.statements(),
    }


def recourse_to_dict(recourse: Recourse) -> dict:
    """Dict view of a recourse recommendation."""
    return {
        "actions": [
            {
                "attribute": a.attribute,
                "current_value": a.current_value,
                "new_value": a.new_value,
                "cost": a.cost,
            }
            for a in recourse.actions
        ],
        "total_cost": recourse.total_cost,
        "estimated_sufficiency": recourse.estimated_sufficiency,
        "estimated_probability": recourse.estimated_probability,
        "is_empty": recourse.is_empty,
        "mode": recourse.mode,
        "optimality_gap": recourse.optimality_gap,
        "statements": recourse.statements(),
    }


def verdict_to_dict(verdict: FairnessVerdict) -> dict:
    """Dict view of one fairness verdict."""
    return {
        "attribute": verdict.attribute,
        "necessity": verdict.necessity,
        "sufficiency": verdict.sufficiency,
        "worst_pair": verdict.worst_pair,
        "demographic_disparity": verdict.demographic_disparity,
        "tolerance": verdict.tolerance,
        "is_counterfactually_fair": verdict.is_counterfactually_fair,
        "summary": verdict.summary(),
    }


# ---------------------------------------------------------------------------
# request objects


@dataclass(frozen=True)
class GlobalExplainRequest:
    """Population-level explanation (context ``K = ∅``)."""

    kind = "explain_global"
    cacheable = True
    attributes: tuple[str, ...] | None = None
    max_pairs_per_attribute: int | None = 8


@dataclass(frozen=True)
class ContextExplainRequest:
    """Sub-population explanation for a user-supplied context ``k``."""

    kind = "explain_context"
    cacheable = True
    context: Mapping[str, Any] = field(default_factory=dict)
    attributes: tuple[str, ...] | None = None
    max_pairs_per_attribute: int | None = 8


@dataclass(frozen=True)
class LocalExplainRequest:
    """Individual-level explanation by row index or decoded assignment."""

    kind = "explain_local"
    cacheable = True
    index: int | None = None
    individual: Mapping[str, Any] | None = None
    attributes: tuple[str, ...] | None = None


@dataclass(frozen=True)
class LocalExplainBatchRequest:
    """Cohort of individual-level explanations in one vectorized pass."""

    kind = "explain_local_batch"
    cacheable = True
    indices: tuple[int, ...] = ()
    attributes: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RecourseBatchRequest:
    """Cohort recourse audit: deduplicated batch IP solving.

    ``indices=None`` audits every individual with the negative decision.
    """

    kind = "recourse_batch"
    cacheable = True
    indices: tuple[int, ...] | None = None
    actionable: tuple[str, ...] | None = None
    alpha: float = 0.8
    #: solver mode ("exact" | "anytime") — part of the cache key, since
    #: anytime answers carry gaps and must not be served as exact ones.
    mode: str = "exact"


@dataclass(frozen=True)
class RecourseRequest:
    """Minimal-cost recourse for the individual at ``index``."""

    kind = "recourse"
    cacheable = True
    index: int = 0
    actionable: tuple[str, ...] | None = None
    alpha: float = 0.8
    mode: str = "exact"


@dataclass(frozen=True)
class AuditRequest:
    """Counterfactual-fairness audit over protected attributes."""

    kind = "audit"
    cacheable = True
    protected: tuple[str, ...] | None = None
    tolerance: float = 0.05


@dataclass(frozen=True)
class ScoresRequest:
    """Raw score triples for ad-hoc ``(values, baselines)`` contrasts."""

    kind = "scores"
    cacheable = True
    contrasts: tuple[tuple[Mapping[str, Any], Mapping[str, Any]], ...] = ()
    context: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class UpdateRequest:
    """Apply a :class:`TableDelta` to the live table."""

    kind = "update"
    cacheable = False
    delta: TableDelta = field(default_factory=TableDelta)


# ---------------------------------------------------------------------------
# the session


def _session_collector(ref: "weakref.ref[ExplainerSession]"):
    """Registry collector sampling one (weakly-held) session at scrape time."""

    def collect() -> dict:
        session = ref()
        if session is None:
            raise LookupError("session gone")  # auto-unregisters the collector
        labels = {"tenant": session.tenant or "default"}
        samples: dict[str, float] = {}
        samples.update(session.cache.stats_struct().metric_samples(labels))
        estimator = session.lewis.estimator
        samples.update(
            estimator.engine.cache_stats().metric_samples(labels)
        )
        samples.update(
            estimator.local_model_cache_stats().metric_samples(labels)
        )
        samples[_obs.full_name("repro_session_requests_served", labels)] = float(
            session._served
        )
        samples[_obs.full_name("repro_session_n_rows", labels)] = float(
            len(session.lewis.data)
        )
        samples[_obs.full_name("repro_session_table_version", labels)] = float(
            session.table_version
        )
        batcher = session._batcher.stats()
        samples[_obs.full_name("repro_batcher_largest_batch", labels)] = float(
            batcher["largest_batch"]
        )
        samples[_obs.full_name("repro_batcher_mean_batch", labels)] = float(
            batcher["mean_batch"]
        )
        for name, value in session.lewis.solver_stats().items():
            samples[
                _obs.full_name(f"repro_solver_{name}", labels)
            ] = float(value)
        log = getattr(session, "log", None)
        if log is not None:
            wal = log.stats()
            samples[_obs.full_name("repro_wal_records", labels)] = float(
                wal["records"]
            )
            samples[_obs.full_name("repro_wal_last_seq", labels)] = float(
                wal["last_seq"]
            )
            samples[_obs.full_name("repro_wal_bytes", labels)] = float(
                wal["bytes"]
            )
        return samples

    return collect


def model_fingerprint(model: Any, data) -> str:
    """Stable digest identifying (model, schema) for cache keying.

    Serialisable models hash their full parameter dict, so equal models
    share a fingerprint across processes.  Opaque callables cannot be
    content-hashed; their fallback includes the object identity, so two
    *distinct* callable instances never collide in a shared cache (the
    cache is in-process, where ``id`` is meaningful) — the cost is that
    equal-but-separate callables recompute instead of sharing.
    """
    h = hashlib.sha1()
    try:
        from repro.models.serialize import model_to_dict

        h.update(
            json.dumps(model_to_dict(model), sort_keys=True, default=str).encode()
        )
    except (TypeError, AttributeError):
        name = getattr(model, "__qualname__", type(model).__qualname__)
        h.update(f"callable:{name}:{id(model)}".encode())
    h.update(data.schema_fingerprint().encode())
    return h.hexdigest()[:16]


def data_state_token(data) -> str:
    """Content digest of a table: the root of the session's state chain.

    Hashes every column's code bytes once at session start; afterwards
    the session *advances* the token per delta in O(|delta|) instead of
    rehashing (see :meth:`ExplainerSession._advance_state`), so identical
    (data, update history) pairs agree on the token and any divergence —
    however the version counters happen to align — cannot collide.
    """
    h = hashlib.sha1()
    h.update(data.schema_fingerprint().encode())
    for name in data.names:
        h.update(np.ascontiguousarray(data.codes(name)).tobytes())
    return h.hexdigest()[:16]


class ExplainerSession:
    """One model + :class:`Lewis` + engine behind a request/response API.

    Parameters
    ----------
    lewis:
        The fitted explainer the session serves.
    cache:
        Result cache; pass a shared instance to pool several sessions
        behind one budget. ``None`` builds a private 32 MB cache.
    default_actionable:
        Fallback attribute set for :class:`RecourseRequest` objects that
        do not name one (typically the dataset bundle's actionable list).
    background:
        Start the micro-batcher's dispatch thread. ``True`` for servers
        (concurrent requests coalesce into batched engine passes);
        ``False`` embeds the session single-threaded and dispatches
        inline — results are identical.
    max_queue:
        Load-shedding bound forwarded to :class:`MicroBatcher`;
        ``None`` defers to the ``REPRO_MAX_QUEUE`` environment variable.
    tenant:
        Registry name this session serves under. Scopes every cache key,
        so tenants sharing a :class:`ResultCache` — even ones serving an
        identical (model, table state) pair — can never cross-serve each
        other's responses. Empty for single-session deployments.
    """

    def __init__(
        self,
        lewis: Lewis,
        cache: ResultCache | None = None,
        default_actionable: Sequence[str] | None = None,
        background: bool = False,
        max_queue: int | None = None,
        tenant: str = "",
    ):
        self.lewis = lewis
        self.tenant = str(tenant)
        self.cache = cache if cache is not None else ResultCache()
        self.default_actionable = (
            list(default_actionable) if default_actionable else None
        )
        self.fingerprint = model_fingerprint(lewis._model, lewis.data)
        self._state = data_state_token(lewis.data)
        # Recent tokens of the state chain (newest last). Replicas use
        # membership as the read-your-writes check: a client pinning
        # X-Repro-Min-State to a token it observed is served only once
        # this session's chain has passed through that token.
        self._state_history: deque[str] = deque(maxlen=256)
        self._state_history.append(self._state)
        self._cache_lock = threading.Lock()
        self._served = 0
        self._batcher = MicroBatcher(
            {
                "explain_global": self._do_globals,
                "explain_context": self._do_contexts,
                "explain_local": self._do_locals,
                "explain_local_batch": self._do_local_batches,
                "recourse": self._do_recourses,
                "recourse_batch": self._do_recourse_batches,
                "audit": self._do_audits,
                "scores": self._do_scores,
                "update": self._do_updates,
            },
            max_queue=max_queue,
            start=background,
        )
        # Weakly-referenced registry collector: all three cache layers,
        # session gauges, solver memo counters and (when durable) WAL
        # counters are sampled at scrape time under one tenant label.
        # The collector raising LookupError once the session is gone is
        # what auto-unregisters it, so evicted sessions never pin memory.
        self._collector_key = f"session:{id(self)}"
        _obs.get_registry().register_collector(
            self._collector_key, _session_collector(weakref.ref(self))
        )

    # -- lifecycle ---------------------------------------------------------

    def start_background(self) -> None:
        """Start the batcher's dispatch thread (idempotent).

        Required before serving the session from multiple threads: the
        dispatch lane is what serializes engine access.  The HTTP server
        calls this automatically.
        """
        self._batcher.start()

    def close(self) -> None:
        """Stop the dispatch thread (idempotent)."""
        _obs.get_registry().unregister_collector(self._collector_key)
        self._batcher.close()

    def __enter__(self) -> "ExplainerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling --------------------------------------------------

    @property
    def table_version(self) -> int:
        """The engine's current data-version counter."""
        return self.lewis.table_version

    @property
    def state_token(self) -> str:
        """Content-seeded table-state digest the cache keys on."""
        return self._state

    def _advance_state(self, delta: TableDelta) -> None:
        """Advance the state chain by one applied delta (O(|delta|)).

        Runs on the batcher's dispatch lane immediately after the delta
        is applied (see :meth:`_do_updates`), so every explanation
        computed after the update observes the advanced token — a
        concurrent reader can never cache a post-update result under the
        pre-update key.  The read-modify-write itself is guarded by the
        cache lock against the synchronous-mode caller thread.
        """
        from repro.service.cache import canonical

        payload = repr(
            canonical({"insert": list(delta.insert), "delete": list(delta.delete)})
        )
        with self._cache_lock:
            self._state = hashlib.sha1(
                (self._state + payload).encode("utf-8", "replace")
            ).hexdigest()[:16]
            self._state_history.append(self._state)

    def has_state(self, token: str) -> bool:
        """Whether the state chain has passed through ``token``.

        The read-your-writes gate for replicated reads: a follower that
        has not yet replayed the write producing ``token`` answers 503
        (retryable) instead of serving data older than what the client
        already saw.  Bounded by the history ring — a token older than
        its window conservatively reads as unseen, which only ever
        delays a request, never serves stale state.
        """
        with self._cache_lock:
            return token in self._state_history

    def handle(self, request) -> dict:
        """Answer one request object; returns a JSON-ready response dict.

        Cacheable requests are served from the result cache when the
        (fingerprint, table version, canonical query) key hits; the
        query is the request's own dataclass fields.  Misses and updates
        run on the batcher's dispatch lane, and a computed answer is
        converted to plain JSON types here, once.  A response computed
        concurrently with an update may be stored under the pre-update
        version key — such entries are unreachable (lookups always use
        the current version) and age out via LRU; stale data is never
        served.
        """
        if isinstance(request, UpdateRequest):
            # Updates must advance the state chain and purge dependent
            # entries; route them through the one place that does.
            return self.update(request.delta)
        kind = request.kind
        if request.cacheable:
            state = self._state
            key = ResultCache.key(
                self.fingerprint, state, kind, vars(request), tenant=self.tenant
            )
            with self._cache_lock:
                hit = self.cache.get(key)
            if hit is not None:
                self._served += 1
                return {"kind": kind, "cached": True, "result": hit}
        result = jsonable(self._batcher.run(kind, request))
        degraded = isinstance(result, Mapping) and bool(result.get("degraded"))
        if request.cacheable and not degraded:
            with self._cache_lock:
                # An update may have raced this computation; the result
                # then reflects the *post*-update table, and storing it
                # under the pre-update key would poison a shared cache.
                # Only cache when the state is unchanged end to end.
                # Degraded (anytime-under-deadline) answers are never
                # cached: the next caller asked for the exact one.
                if self._state == state:
                    self.cache.put(key, result)
        self._served += 1
        return {"kind": kind, "cached": False, "result": result}

    # -- convenience wrappers ----------------------------------------------

    def explain_global(self, **kwargs) -> dict:
        """Build, handle, and return a :class:`GlobalExplainRequest`."""
        return self.handle(GlobalExplainRequest(**kwargs))

    def explain_context(self, context: Mapping[str, Any], **kwargs) -> dict:
        """Build, handle, and return a :class:`ContextExplainRequest`."""
        return self.handle(ContextExplainRequest(context=dict(context), **kwargs))

    def explain_local(self, **kwargs) -> dict:
        """Build, handle, and return a :class:`LocalExplainRequest`."""
        return self.handle(LocalExplainRequest(**kwargs))

    def explain_local_batch(self, indices: Sequence[int], **kwargs) -> dict:
        """Build, handle, and return a :class:`LocalExplainBatchRequest`."""
        return self.handle(
            LocalExplainBatchRequest(
                indices=tuple(int(i) for i in indices), **kwargs
            )
        )

    def recourse(self, index: int, **kwargs) -> dict:
        """Build, handle, and return a :class:`RecourseRequest`."""
        return self.handle(RecourseRequest(index=int(index), **kwargs))

    def recourse_batch(
        self, indices: Sequence[int] | None = None, **kwargs
    ) -> dict:
        """Build, handle, and return a :class:`RecourseBatchRequest`."""
        return self.handle(
            RecourseBatchRequest(
                indices=(
                    tuple(int(i) for i in indices)
                    if indices is not None
                    else None
                ),
                **kwargs,
            )
        )

    def audit(self, **kwargs) -> dict:
        """Build, handle, and return an :class:`AuditRequest`."""
        return self.handle(AuditRequest(**kwargs))

    def scores(
        self,
        contrasts: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]],
        context: Mapping[str, Any] | None = None,
    ) -> dict:
        """Build, handle, and return a :class:`ScoresRequest`."""
        return self.handle(
            ScoresRequest(
                contrasts=tuple((dict(v), dict(b)) for v, b in contrasts),
                context=dict(context or {}),
            )
        )

    def update(self, delta: TableDelta | Mapping[str, Any]) -> dict:
        """Apply a data delta; purge dependent cache entries.

        Accepts a :class:`TableDelta` or its JSON form.  Returns the new
        table version and how many cache entries were invalidated.
        """
        if not isinstance(delta, TableDelta):
            delta = TableDelta.from_json(delta)
        response = self._batcher.run("update", UpdateRequest(delta=delta))
        with self._cache_lock:
            purged = self.cache.purge_stale(
                self.fingerprint, self._state, tenant=self.tenant
            )
        response["purged"] = purged
        self._served += 1
        return {"kind": "update", "cached": False, "result": response}

    # -- label resolution --------------------------------------------------

    def _code_of(self, column: Column, value: Any) -> int:
        """Map a (possibly JSON-roundtripped) label to its code."""
        try:
            return column.code_of(value)
        except DomainError:
            for code, category in enumerate(column.categories):
                if str(category) == str(value):
                    return code
            raise

    def _encode(self, labels: Mapping[str, Any]) -> dict[str, Any]:
        """Resolve JSON labels to canonical category labels per column."""
        out = {}
        for name, value in labels.items():
            column = self.lewis.data.column(name)
            out[name] = column.categories[self._code_of(column, value)]
        return out

    # -- batched handlers (run on the dispatch lane) -------------------------

    def _do_globals(self, requests: list[GlobalExplainRequest]) -> list[dict]:
        return [
            global_explanation_to_dict(
                self.lewis.explain_global(
                    attributes=list(r.attributes) if r.attributes else None,
                    max_pairs_per_attribute=r.max_pairs_per_attribute,
                )
            )
            for r in requests
        ]

    def _do_contexts(self, requests: list[ContextExplainRequest]) -> list[dict]:
        return [
            global_explanation_to_dict(
                self.lewis.explain_context(
                    self._encode(r.context),
                    attributes=list(r.attributes) if r.attributes else None,
                    max_pairs_per_attribute=r.max_pairs_per_attribute,
                )
            )
            for r in requests
        ]

    def _do_locals(self, requests: list[LocalExplainRequest]) -> list[dict]:
        # One dispatch pass shares the lazily fitted per-attribute local
        # models across the whole batch (they are cached per feature set).
        out = []
        for r in requests:
            explanation = self.lewis.explain_local(
                index=r.index,
                individual=self._encode(r.individual) if r.individual else None,
                attributes=list(r.attributes) if r.attributes else None,
            )
            out.append(local_explanation_to_dict(explanation))
        return out

    def _do_local_batches(
        self, requests: list[LocalExplainBatchRequest]
    ) -> list[dict]:
        # The whole cohort's regression probes are deduplicated and
        # answered in one matrix pass per attribute group.
        out = []
        for r in requests:
            explanations = self.lewis.explain_local_batch(
                list(r.indices),
                attributes=list(r.attributes) if r.attributes else None,
            )
            out.append(
                {
                    "indices": [int(i) for i in r.indices],
                    "explanations": [
                        local_explanation_to_dict(e) for e in explanations
                    ],
                }
            )
        return out

    def _actionable_for(self, requested) -> list[str]:
        actionable = list(requested) if requested else self.default_actionable
        if not actionable:
            raise ValueError(
                "no actionable attributes: pass them on the request "
                "or configure default_actionable on the session"
            )
        return actionable

    def _do_recourses(self, requests: list[RecourseRequest]) -> list[dict]:
        out = []
        for r in requests:
            actionable = self._actionable_for(r.actionable)
            out.append(
                recourse_to_dict(
                    self.lewis.recourse(
                        r.index, actionable=actionable, alpha=r.alpha, mode=r.mode
                    )
                )
            )
        return out

    def _do_recourse_batches(
        self, requests: list[RecourseBatchRequest]
    ) -> list[dict]:
        # One logit pass for base probabilities, one signature solve per
        # distinct (current codes, context) signature.
        out = []
        for r in requests:
            actionable = self._actionable_for(r.actionable)
            mode = r.mode
            degraded = False
            if mode == "exact":
                # Degradation ladder: with the request deadline nearly
                # spent, an exact cohort solve would blow it — fall back
                # to the certified anytime mode and *label* the answer,
                # so a 200 is never silently weaker than what was asked.
                remaining = _deadline.remaining_s()
                floor_s = float(os.environ.get("REPRO_ANYTIME_MS", "250")) / 1e3
                if remaining is not None and remaining < floor_s:
                    mode = "anytime"
                    degraded = True
            audit = self.lewis.recourse_audit(
                actionable,
                alpha=r.alpha,
                indices=list(r.indices) if r.indices is not None else None,
                mode=mode,
            )
            if degraded:
                audit["degraded"] = True
                audit["degraded_reason"] = "deadline"
            audit["recourses"] = [
                recourse_to_dict(x) if x is not None else None
                for x in audit.pop("recourses")
            ]
            out.append(audit)
        return out

    def _do_audits(self, requests: list[AuditRequest]) -> list[dict]:
        out = []
        for r in requests:
            protected = list(r.protected) if r.protected else [
                name
                for name in ("sex", "race", "gender")
                if name in self.lewis.data
            ]
            if not protected:
                raise ValueError(
                    "no protected attributes found; pass AuditRequest.protected"
                )
            auditor = FairnessAuditor(self.lewis, tolerance=r.tolerance)
            out.append(
                {"verdicts": [verdict_to_dict(v) for v in auditor.audit_all(protected)]}
            )
        return out

    def _do_scores(self, requests: list[ScoresRequest]) -> list[dict]:
        # Requests sharing a context collapse into one scores_batch pass —
        # the coalescing the micro-batcher exists for.
        groups: dict[tuple, list[int]] = {}
        encoded: list[tuple[list, dict]] = []
        for i, r in enumerate(requests):
            contrasts = [
                (self._encode(values), self._encode(baselines))
                for values, baselines in r.contrasts
            ]
            context = self._encode(r.context)
            encoded.append((contrasts, context))
            groups.setdefault(tuple(sorted(context.items())), []).append(i)
        out: list[dict] = [{} for _ in requests]
        for indices in groups.values():
            flat: list = []
            owners: list[tuple[int, int]] = []
            context = encoded[indices[0]][1]
            for i in indices:
                for j, contrast in enumerate(encoded[i][0]):
                    flat.append(contrast)
                    owners.append((i, j))
            triples = self.lewis.scores_batch(flat, context)
            per_request: dict[int, list] = {i: [] for i in indices}
            for (i, _j), triple in zip(owners, triples):
                per_request[i].append(triple.as_dict())
            for i in indices:
                out[i] = {"context": context, "scores": per_request[i]}
        return out

    def _do_updates(self, requests: list[UpdateRequest]) -> list[dict]:
        out = []
        for r in requests:
            before = len(self.lewis.data)
            version = apply_delta(self.lewis, r.delta)
            if not r.delta.is_empty:
                self._advance_state(r.delta)
            out.append(
                {
                    "version": version,
                    "n_rows": len(self.lewis.data),
                    "inserted": len(r.delta.insert),
                    "deleted": len(r.delta.delete),
                    "rows_before": before,
                }
            )
        return out

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Aggregate session / cache / engine / scheduler statistics."""
        estimator = self.lewis.estimator
        return {
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "table_version": self.table_version,
            "state_token": self._state,
            "n_rows": len(self.lewis.data),
            "requests_served": self._served,
            "scheduler": self._batcher.stats(),
            "caches": {
                "result": self.cache.stats_struct().as_dict(),
                "tensor": estimator.engine.cache_stats().as_dict(),
                "local_model": estimator.local_model_cache_stats().as_dict(),
            },
            "solver": self.lewis.solver_stats(),
        }
