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
(model fingerprint, table state, canonical query) key hits; a miss runs
on the caller's own thread through the session's lane
(:class:`~repro.service.scheduler.MicroBatcher`), a lock that admits one
request at a time.  Only code on the lane touches the engine, so the
session is thread-safe by construction.  Updates take the same lane, so
reads and writes serialize with no second discipline; afterwards only
the cache entries keyed to superseded table states are purged.  Every
response names the table state that produced it.
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
from repro.obs import metrics as _obs
from repro.service.cache import ResultCache
from repro.service.scheduler import MicroBatcher
from repro.service.updates import TableDelta, apply_delta
from repro.utils import deadline as _deadline


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
    max_queue:
        Bound on callers waiting for the session's lane, forwarded to
        :class:`MicroBatcher`; ``None`` defers to the ``REPRO_MAX_QUEUE``
        environment variable.
    tenant:
        Registry name this session serves under. Scopes every cache key,
        so tenants sharing a :class:`ResultCache` — even ones serving an
        identical (model, table state) pair — can never cross-serve each
        other's responses. Empty for single-session deployments.

    The session starts no thread: every request runs on its caller's
    thread, and any number of threads may call it at once.
    """

    def __init__(
        self,
        lewis: Lewis,
        cache: ResultCache | None = None,
        default_actionable: Sequence[str] | None = None,
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
        #: (state token, table version) of the table the lane serves;
        #: replaced in one assignment per applied delta, so a reader
        #: never sees one half of a pair without the other
        self._stamp = (data_state_token(lewis.data), lewis.table_version)
        # Recent tokens of the state chain (newest last). Replicas use
        # membership as the read-your-writes check: a client pinning
        # X-Repro-Min-State to a token it observed is served only once
        # this session's chain has passed through that token.
        self._state_history: deque[str] = deque(maxlen=256)
        self._state_history.append(self._stamp[0])
        self._cache_lock = threading.Lock()
        self._served = 0
        handlers = {
            "explain_global": self._do_global,
            "explain_context": self._do_context,
            "explain_local": self._do_local,
            "explain_local_batch": self._do_local_batch,
            "recourse": self._do_recourse,
            "recourse_batch": self._do_recourse_batch,
            "audit": self._do_audit,
            "scores": self._do_scores,
            "update": self._do_update,
        }
        self._batcher = MicroBatcher(
            {kind: self._stamped(do) for kind, do in handlers.items()},
            max_queue=max_queue,
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

    def close(self) -> None:
        """Unregister the metrics collector (idempotent).

        The session holds no thread, so a closed session still answers.
        """
        _obs.get_registry().unregister_collector(self._collector_key)

    def __enter__(self) -> "ExplainerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling --------------------------------------------------

    @property
    def table_version(self) -> int:
        """Data-version counter of the table state the session serves."""
        return self._stamp[1]

    @property
    def state_token(self) -> str:
        """Content-seeded table-state digest the cache keys on."""
        return self._stamp[0]

    def _stamped(self, do):
        """Lane handler: ``do``'s answer plus the state stamp it read."""
        return lambda request: (do(request), self._stamp)

    def _advance_state(self, delta: TableDelta, version: int) -> None:
        """Advance the state chain by one applied delta (O(|delta|)).

        Runs on the lane immediately after the delta is applied (see
        :meth:`_do_update`), so every answer computed afterwards reads
        the advanced stamp — a concurrent reader can never cache a
        post-update result under the pre-update key, and every answer
        reports the state that produced it.  The history ring is guarded
        by the cache lock against :meth:`has_state`.
        """
        from repro.service.cache import canonical

        payload = repr(
            canonical({"insert": list(delta.insert), "delete": list(delta.delete)})
        )
        with self._cache_lock:
            token = hashlib.sha1(
                (self._stamp[0] + payload).encode("utf-8", "replace")
            ).hexdigest()[:16]
            self._stamp = (token, version)
            self._state_history.append(token)

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
        (fingerprint, table state, canonical query) key hits; the query
        is the request's own dataclass fields.  Misses and updates run
        on the session's lane, on the caller's thread, and a computed
        answer is converted to plain JSON types here, once.

        The response's ``state_token`` and ``table_version`` name the
        table state that produced the answer: for a hit, the state its
        key was built from; otherwise the state the lane read when it
        computed the answer.  An answer computed after an update landed
        between the key and the lane is returned but not cached, so a
        shared cache never holds a result under the wrong state.
        """
        if isinstance(request, UpdateRequest):
            # Updates must advance the state chain and purge dependent
            # entries; route them through the one place that does.
            return self.update(request.delta)
        kind = request.kind
        if request.cacheable:
            stamp = self._stamp
            key = ResultCache.key(
                self.fingerprint, stamp[0], kind, vars(request), tenant=self.tenant
            )
            with self._cache_lock:
                hit = self.cache.get(key)
            if hit is not None:
                return self._response(kind, hit, stamp, cached=True)
        result, computed = self._batcher.run(kind, request)
        result = jsonable(result)
        degraded = isinstance(result, Mapping) and bool(result.get("degraded"))
        # Degraded (anytime-under-deadline) answers are never cached:
        # the next caller asked for the exact one.
        if request.cacheable and not degraded and computed == stamp:
            with self._cache_lock:
                self.cache.put(key, result)
        return self._response(kind, result, computed)

    def _response(self, kind: str, result, stamp, cached: bool = False) -> dict:
        with self._cache_lock:
            self._served += 1
        return {
            "kind": kind,
            "cached": cached,
            "result": result,
            "table_version": stamp[1],
            "state_token": stamp[0],
        }

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
        return self._updated("update", UpdateRequest(delta=delta))

    def _updated(self, kind: str, payload) -> dict:
        """Run one update on the lane, then purge superseded entries."""
        result, stamp = self._batcher.run(kind, payload)
        with self._cache_lock:
            result["purged"] = self.cache.purge_stale(
                self.fingerprint, self.state_token, tenant=self.tenant
            )
        return self._response("update", result, stamp)

    def _encode(self, labels: Mapping[str, Any]) -> dict[str, Any]:
        """Resolve JSON labels to canonical category labels per column."""
        out = {}
        for name, value in labels.items():
            column = self.lewis.data.column(name)
            out[name] = column.categories[column.lenient_code_of(value)]
        return out

    # -- lane handlers: one request each -------------------------------------

    def _do_global(self, r: GlobalExplainRequest) -> dict:
        return global_explanation_to_dict(
            self.lewis.explain_global(
                attributes=list(r.attributes) if r.attributes else None,
                max_pairs_per_attribute=r.max_pairs_per_attribute,
            )
        )

    def _do_context(self, r: ContextExplainRequest) -> dict:
        return global_explanation_to_dict(
            self.lewis.explain_context(
                self._encode(r.context),
                attributes=list(r.attributes) if r.attributes else None,
                max_pairs_per_attribute=r.max_pairs_per_attribute,
            )
        )

    def _do_local(self, r: LocalExplainRequest) -> dict:
        return local_explanation_to_dict(
            self.lewis.explain_local(
                index=r.index,
                individual=self._encode(r.individual) if r.individual else None,
                attributes=list(r.attributes) if r.attributes else None,
            )
        )

    def _do_local_batch(self, r: LocalExplainBatchRequest) -> dict:
        # The whole cohort's regression probes are deduplicated and
        # answered in one matrix pass per attribute group.
        explanations = self.lewis.explain_local_batch(
            list(r.indices),
            attributes=list(r.attributes) if r.attributes else None,
        )
        return {
            "indices": [int(i) for i in r.indices],
            "explanations": [local_explanation_to_dict(e) for e in explanations],
        }

    def _actionable_for(self, requested) -> list[str]:
        actionable = list(requested) if requested else self.default_actionable
        if not actionable:
            raise ValueError(
                "no actionable attributes: pass them on the request "
                "or configure default_actionable on the session"
            )
        return actionable

    def _do_recourse(self, r: RecourseRequest) -> dict:
        return recourse_to_dict(
            self.lewis.recourse(
                r.index,
                actionable=self._actionable_for(r.actionable),
                alpha=r.alpha,
                mode=r.mode,
            )
        )

    def _do_recourse_batch(self, r: RecourseBatchRequest) -> dict:
        # One logit pass for base probabilities, one signature solve per
        # distinct (current codes, context) signature.
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
        return audit

    def _do_audit(self, r: AuditRequest) -> dict:
        protected = list(r.protected) if r.protected else [
            name for name in ("sex", "race", "gender") if name in self.lewis.data
        ]
        if not protected:
            raise ValueError(
                "no protected attributes found; pass AuditRequest.protected"
            )
        auditor = FairnessAuditor(self.lewis, tolerance=r.tolerance)
        return {"verdicts": [verdict_to_dict(v) for v in auditor.audit_all(protected)]}

    def _do_scores(self, r: ScoresRequest) -> dict:
        contrasts = [
            (self._encode(values), self._encode(baselines))
            for values, baselines in r.contrasts
        ]
        context = self._encode(r.context)
        triples = self.lewis.scores_batch(contrasts, context)
        return {"context": context, "scores": [t.as_dict() for t in triples]}

    def _do_update(self, r: UpdateRequest) -> dict:
        before = len(self.lewis.data)
        version = apply_delta(self.lewis, r.delta)
        if not r.delta.is_empty:
            self._advance_state(r.delta, version)
        return {
            "version": version,
            "n_rows": len(self.lewis.data),
            "inserted": len(r.delta.insert),
            "deleted": len(r.delta.delete),
            "rows_before": before,
        }

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Aggregate session / cache / engine / scheduler statistics."""
        estimator = self.lewis.estimator
        return {
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "table_version": self.table_version,
            "state_token": self.state_token,
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
