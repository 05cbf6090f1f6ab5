"""Stdlib JSON-over-HTTP front end for explainer sessions.

No framework, no dependency: :class:`http.server.ThreadingHTTPServer`
plus a request handler that maps JSON bodies onto a session's typed
request objects.  Each handler thread runs its own request: cache hits
return without touching the engine, and misses wait for the session's
lane (one lock) and compute on that same thread, so the server needs
no dispatch thread and serves a session exactly as an embedded caller
does.

The server runs in one of two modes (or both at once):

* **single-session** — one :class:`ExplainerSession` behind the classic
  endpoints,
* **multi-tenant** — a :class:`~repro.store.registry.Registry` of stored
  sessions; any path whose first segment names a tenant is served by
  that tenant's session (lazy-loaded from its snapshot + write-ahead
  log on first request), and ``/v1/registry/*`` manages the fleet.

:data:`ROUTES` is the only place a request path is matched, and every
request, whatever its method, takes one dispatch path through it.

Every session POST opens a trace at the edge: the generated
``request_id`` (== trace id) is echoed in success *and* error bodies,
stamped into WAL records and monitor alerts written on its behalf, and
the finished trace — queue-wait, compute, recourse-solve, fsync and
monitor-refresh spans included — is retrievable from ``GET /v1/traces``
the moment the response is sent.  The response's ``state_token`` and
``table_version`` name the table state that produced its answer.
``GET /metrics`` exposes the process-wide metrics registry in Prometheus
text format.

Endpoints (all responses are JSON unless noted; ``[t]``: also served
tenant-scoped as ``/v1/<tenant>/...``)::

    GET    /healthz             process liveness; 200 even while draining
    GET    /readyz              per-subsystem readiness (store writable,
                                queue headroom, drain state); 503 when not
    GET    /metrics             Prometheus text exposition (0.0.4)
    GET    /v1/traces           finished traces, newest first
                                ?min_ms=F&limit=N&slow=1&id=<trace_id>
    GET    /v1/health       [t] liveness + session identity (?digest=1)
    GET    /v1/stats        [t] scheduler / cache / solver statistics
                                + metrics registry snapshot + tracer stats
    GET    /v1/log          [t] WAL shipping batch after seq N:
                                ?cursor=N&max=K (epoch-stamped;
                                cursor_valid=false means "resync from
                                snapshot")
    GET    /v1/monitors     [t] list monitors (baselines, summaries, cursors)
    GET    /v1/monitors/<id> [t] one monitor's full state
    GET    /v1/watch        [t] long-poll for drift alerts newer than
                                alert-seq N: ?cursor=N&timeout=S (max 60)
    GET    /v1/registry                   tenant listing + load state
    GET    /v1/registry/<tenant>          snapshots, manifest summary, stats
    GET    /v1/registry/<tenant>/manifest latest manifest, verbatim
    GET    /v1/registry/<tenant>/object/<digest>  blob bytes (octet-stream)
    GET    /v1/replication      role, epoch, per-tenant lag, tailer state

    POST   /v1/explain/global   [t] {"attributes"?, "max_pairs_per_attribute"?}
    POST   /v1/explain/context  [t] {"context": {attr: value}, ...}
    POST   /v1/explain/local    [t] {"index"? | "individual"?, "attributes"?}
    POST   /v1/explain/local_batch [t] {"indices": [i, ...], "attributes"?}
    POST   /v1/recourse         [t] {"index", "actionable"?, "alpha"?, "mode"?}
    POST   /v1/recourse/batch   [t] {"indices"?, "actionable"?, "alpha"?,
                                     "mode"?}
    POST   /v1/audit            [t] {"protected"?, "tolerance"?}
    POST   /v1/scores           [t] {"contrasts": [[values, baselines], ...],
                                     "context"?}
    POST   /v1/update           [t] {"insert": [row, ...], "delete": [index, ...]}
    POST   /v1/monitors         [t] register a standing monitor {"kind":
                                    "score"|"fairness"|"monotonicity"|"recourse",
                                    "params": {...}, "metric"?, "threshold"?,
                                    "cusum"?}
    POST   /v1/registry/<tenant>/snapshot  checkpoint now (snapshot + WAL
                                           compaction)
    POST   /v1/registry/<tenant>/evict     unload from memory (state stays
                                           on disk)
    POST   /v1/replication/promote   {"catchup_store"?, "reason"?} become leader
    POST   /v1/replication/retarget  {"leader_url"} follow a new leader

    DELETE /v1/monitors/<id>    [t] deregister a monitor
    DELETE /v1/registry/<tenant>    remove tenant (snapshots + log)

``/healthz``, ``/readyz`` and ``/metrics`` also answer under ``/v1``.
Followers (``serve --follow URL``) answer every read; writes return 503
with the leader's URL.  Reads pinned with ``X-Repro-Min-State: <token>``
are refused with 503 until the replica has applied the state the client
last saw (read-your-writes across the fleet).

One status map (:data:`ERROR_STATUS`) holds for every method: malformed
requests, unknown attributes/labels and out-of-range rows 400; unknown
tenants/objects/endpoints 404; infeasible recourse 409; unsupported
conditioning events 422; a full request queue 429; draining, follower
writes, unmet state pins and store trouble 503; expired deadlines 504;
500 only for internal defects.  Start a server with
``python -m repro.cli serve`` or programmatically via
:func:`create_server`; :func:`serve` installs SIGTERM/SIGINT handlers
that stop accepting, drain in-flight requests, and close the store.
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, NamedTuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics as _obs
from repro.obs import tracing as _tracing
from repro.service.session import (
    AuditRequest,
    ContextExplainRequest,
    ExplainerSession,
    GlobalExplainRequest,
    LocalExplainBatchRequest,
    LocalExplainRequest,
    RecourseBatchRequest,
    RecourseRequest,
    ScoresRequest,
)
from repro.service.updates import TableDelta
from repro.store.artifacts import RESERVED_TENANT_NAMES
from repro.utils import deadline as _deadline
from repro.utils.exceptions import (
    DeadlineExceededError,
    DegradedError,
    EstimationError,
    OverloadedError,
    RecourseInfeasibleError,
    StoreError,
)

MAX_BODY_BYTES = 8 << 20

#: first path segments that can never be tenant names: tenant creation
#: rejects exactly these, and every route's first segment is one of them
RESERVED_SEGMENTS = RESERVED_TENANT_NAMES

#: ``route`` label of every request no route matched, so arbitrary
#: paths never become metric label values
UNMATCHED = "unmatched"

_obs.get_registry().declare(
    "repro_http_requests_total",
    "counter",
    "HTTP requests served, by method, route pattern and status code.",
)
_obs.get_registry().declare(
    "repro_http_request_seconds",
    "histogram",
    "End-to-end HTTP request latency in seconds, by method and route pattern.",
)

#: labelled-instrument cache: format the label suffixes once per
#: (method, route, status), not once per request.
_HTTP_INSTRUMENTS: dict[tuple[str, str, int], tuple[Any, Any]] = {}


def _http_instruments(method: str, route: str, status: int) -> tuple[Any, Any]:
    """``(request counter, latency histogram)`` for one label set."""
    instruments = _HTTP_INSTRUMENTS.get((method, route, status))
    if instruments is None:
        labels = {"method": method, "route": route}
        instruments = (
            _obs.get_registry().counter(
                "repro_http_requests_total",
                labels={**labels, "status": str(status)},
            ),
            _obs.get_registry().histogram(
                "repro_http_request_seconds", labels=labels
            ),
        )
        _HTTP_INSTRUMENTS[(method, route, status)] = instruments
    return instruments


class BadRequest(ValueError):
    """Malformed request (HTTP 400)."""


class NotFound(LookupError):
    """Unknown endpoint, tenant or object (HTTP 404)."""


class Unavailable(RuntimeError):
    """Retryable refusal (HTTP 503): draining, a write sent to a follower,
    or a read pinned to a state this replica has not reached.

    ``fields`` join the error body, ``headers`` the response.
    """

    def __init__(
        self, message: str, headers: Mapping[str, str] | None = None, **fields
    ):
        super().__init__(message)
        self.headers = dict(headers or {})
        self.fields = fields


#: exception -> (status, message prefix) for every route and method; the
#: first matching row wins, anything else is an internal defect (500).
ERROR_STATUS: tuple[tuple[type, int, str], ...] = (
    (NotFound, 404, ""),
    (Unavailable, 503, ""),
    # ValueError is the library's client-error convention (malformed
    # deltas, bad selectors, missing actionables, unknown labels).
    (ValueError, 400, ""),
    (KeyError, 400, "unknown attribute: "),
    (IndexError, 400, "row index out of range: "),
    (RecourseInfeasibleError, 409, "recourse infeasible: "),
    (EstimationError, 422, "unsupported conditioning event: "),
    (OverloadedError, 429, "overloaded: "),
    # The store is read-only degraded (failed write/fsync); the data is
    # safe but this replica cannot accept the request.
    (DegradedError, 503, "store degraded: "),
    # transient persistence-layer contention (e.g. racing an eviction):
    # the request is valid, a retry will succeed
    (StoreError, 503, "store busy: "),
    (DeadlineExceededError, 504, "deadline exceeded: "),
)


class Reply(NamedTuple):
    """One response: a JSON-able body, or text/bytes with their type."""

    status: int
    body: Any
    content_type: str = "application/json"
    headers: Mapping[str, str] | None = None


def _error_reply(exc: Exception, request_id: str) -> Reply:
    """Map an exception through :data:`ERROR_STATUS` to its response."""
    for kind, status, prefix in ERROR_STATUS:
        if isinstance(exc, kind):
            break
    else:
        status, prefix = 500, f"internal error: {type(exc).__name__}: "
    body = {"error": f"{prefix}{exc}", "request_id": request_id}
    headers: dict[str, str] = {}
    if isinstance(exc, Unavailable):
        body.update(exc.fields)
        headers.update(exc.headers)
    if status in (429, 503):
        retry_s = exc.retry_after_s if isinstance(exc, OverloadedError) else 1
        headers["Retry-After"] = str(max(1, int(round(retry_s))))
    return Reply(status, body, headers=headers)


# -- request bodies -> session request objects ----------------------------------


def _names(payload: Mapping[str, Any], key: str) -> tuple[str, ...] | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise BadRequest(f"{key!r} must be a list of attribute names")
    return tuple(value)


def _as_int(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key!r} must be an integer")
    return int(value)


def _as_index(value: Any, key: str) -> int:
    index = _as_int(value, key)
    if index < 0:
        raise BadRequest(
            f"{key!r} must hold non-negative row indices, got {index}"
        )
    return index


def _as_number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{key!r} must be a number")
    if not math.isfinite(value):
        raise BadRequest(f"{key!r} must be finite")
    return float(value)


def _as_index_tuple(value: Any, key: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise BadRequest(f"{key!r} must be a non-empty list of row indices")
    return tuple(_as_index(v, key) for v in value)


def _explain_fields(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Fields shared by the global and the contextual explanation."""
    max_pairs = _as_int(
        payload.get("max_pairs_per_attribute", 8), "max_pairs_per_attribute"
    )
    if max_pairs < 1:
        raise BadRequest('"max_pairs_per_attribute" must be >= 1')
    return {
        "attributes": _names(payload, "attributes"),
        "max_pairs_per_attribute": max_pairs,
    }


def _recourse_fields(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Fields shared by single-row and cohort recourse."""
    mode = payload.get("mode", "exact")
    if mode not in ("exact", "anytime"):
        raise BadRequest('"mode" must be "exact" or "anytime"')
    return {
        "actionable": _names(payload, "actionable"),
        "alpha": _as_number(payload.get("alpha", 0.8), "alpha"),
        "mode": mode,
    }


def _global_request(payload: Mapping[str, Any]) -> GlobalExplainRequest:
    return GlobalExplainRequest(**_explain_fields(payload))


def _context_request(payload: Mapping[str, Any]) -> ContextExplainRequest:
    context = payload.get("context")
    if not isinstance(context, Mapping) or not context:
        raise BadRequest('"context" must be a non-empty object')
    return ContextExplainRequest(context=dict(context), **_explain_fields(payload))


def _local_request(payload: Mapping[str, Any]) -> LocalExplainRequest:
    index = payload.get("index")
    individual = payload.get("individual")
    if (index is None) == (individual is None):
        raise BadRequest('pass exactly one of "index" / "individual"')
    if individual is not None and not isinstance(individual, Mapping):
        raise BadRequest('"individual" must be an object')
    return LocalExplainRequest(
        index=None if index is None else _as_index(index, "index"),
        individual=dict(individual) if individual is not None else None,
        attributes=_names(payload, "attributes"),
    )


def _local_batch_request(payload: Mapping[str, Any]) -> LocalExplainBatchRequest:
    if "indices" not in payload:
        raise BadRequest('"indices" is required')
    return LocalExplainBatchRequest(
        indices=_as_index_tuple(payload["indices"], "indices"),
        attributes=_names(payload, "attributes"),
    )


def _recourse_request(payload: Mapping[str, Any]) -> RecourseRequest:
    if "index" not in payload:
        raise BadRequest('"index" is required')
    return RecourseRequest(
        index=_as_index(payload["index"], "index"), **_recourse_fields(payload)
    )


def _recourse_batch_request(payload: Mapping[str, Any]) -> RecourseBatchRequest:
    indices = payload.get("indices")
    return RecourseBatchRequest(
        indices=(
            _as_index_tuple(indices, "indices") if indices is not None else None
        ),
        **_recourse_fields(payload),
    )


def _audit_request(payload: Mapping[str, Any]) -> AuditRequest:
    return AuditRequest(
        protected=_names(payload, "protected"),
        tolerance=_as_number(payload.get("tolerance", 0.05), "tolerance"),
    )


def _scores_request(payload: Mapping[str, Any]) -> ScoresRequest:
    contrasts = payload.get("contrasts")
    if not isinstance(contrasts, list) or not contrasts:
        raise BadRequest('"contrasts" must be a non-empty list')
    parsed = []
    for entry in contrasts:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(side, Mapping) for side in entry)
        ):
            raise BadRequest(
                "each contrast must be a [values, baselines] pair of objects"
            )
        parsed.append((dict(entry[0]), dict(entry[1])))
    context = payload.get("context", {})
    if not isinstance(context, Mapping):
        raise BadRequest('"context" must be an object')
    return ScoresRequest(contrasts=tuple(parsed), context=dict(context))


# -- the route table's row type and matcher ---------------------------------------


@dataclass(frozen=True)
class Route:
    """One row of :data:`ROUTES`."""

    method: str
    #: ``/v1/...`` path; a ``{name}`` segment captures into ``params``
    pattern: str
    #: called with the request handler; returns a JSON-able dict or a Reply
    handler: Callable[[ExplainerRequestHandler], Any]
    #: the route also works under a tenant prefix (``/v1/<tenant>/...``)
    session: bool = False
    #: followers refuse it with 503 and ``leader_url``
    write: bool = False
    #: still served while the server drains
    observability: bool = False
    segments: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts = [p for p in self.pattern.split("/") if p]
        if parts[0] == "v1":
            parts = parts[1:]
        object.__setattr__(self, "segments", tuple(parts))

    def match(self, parts: list[str]) -> dict[str, str] | None:
        if len(parts) != len(self.segments):
            return None
        params = {}
        for want, got in zip(self.segments, parts):
            if want.startswith("{"):
                params[want[1:-1]] = got
            elif want != got:
                return None
        return params


def _match(
    method: str, path: str
) -> tuple[Route | None, str | None, dict[str, str]]:
    """``(route, tenant, params)``; ``route`` is ``None`` when no row matches.

    The ``/v1`` prefix is optional; a first segment outside
    :data:`RESERVED_SEGMENTS` names a tenant, and only session routes
    match behind one.
    """
    parts = [p for p in path.split("/") if p]
    if parts[:1] == ["v1"]:
        parts = parts[1:]
    tenant = None
    if parts and parts[0] not in RESERVED_SEGMENTS:
        tenant, parts = parts[0], parts[1:]
    for route in ROUTES:
        if route.method != method or (tenant is not None and not route.session):
            continue
        params = route.match(parts)
        if params is not None:
            return route, tenant, params
    return None, None, {}


def _found(call: Callable, *args, **kwargs):
    """``call(...)``, answering a store miss (no such tenant or object) 404."""
    try:
        return call(*args, **kwargs)
    except StoreError as exc:
        raise NotFound(str(exc)) from exc


# -- the server ------------------------------------------------------------------


class ExplainerHTTPServer(ThreadingHTTPServer):
    """Threading server that *drains* on close.

    ``daemon_threads`` is off and ``block_on_close`` on, so
    ``server_close()`` joins every in-flight handler thread: a graceful
    shutdown answers accepted requests before the process exits.
    """

    daemon_threads = False
    block_on_close = True

    #: attached by :func:`create_server`
    session: ExplainerSession | None = None
    registry = None
    monitors = None
    #: :class:`~repro.replication.manager.ReplicationManager` when the
    #: server has a registry (leaders lend their epoch to shipped
    #: batches; followers tail, block writes, and can promote).
    replication = None
    #: set by :func:`serve` on SIGTERM/SIGINT: new work is refused with
    #: 503 + Retry-After while in-flight requests finish (liveness and
    #: metrics endpoints stay reachable for the supervisor).
    draining: bool = False


class ExplainerRequestHandler(BaseHTTPRequestHandler):
    """Serves every request through :data:`ROUTES` and one dispatcher.

    Like ``path`` and ``headers``, the matched ``route``, ``tenant``,
    ``params``, ``query``, ``body`` and ``request_id`` are per-request
    attributes, set by :meth:`_dispatch` before a route handler runs.
    """

    server_version = "repro-explainer/2.0"
    protocol_version = "HTTP/1.1"
    #: socket timeout: bounds how long a drained shutdown can wait on an
    #: idle keep-alive connection.
    timeout = 30
    #: headers and body leave in two writes; with Nagle's algorithm on,
    #: each keep-alive response would wait out the client's delayed ACK.
    disable_nagle_algorithm = True
    #: silence per-request stderr logging unless the server opts in.
    verbose = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch()

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch()

    # -- the one request path ------------------------------------------------

    def _dispatch(self) -> None:
        self._started = time.perf_counter()
        # The request id doubles as the trace id: it is echoed in the
        # response (success or error), stamped into WAL records written
        # on this request's behalf, and keys the /v1/traces lookup.
        self.request_id = _tracing.new_id()
        self.route: Route | None = None
        self._session: ExplainerSession | None = None
        try:
            reply = self._serve()
        except Exception as exc:  # noqa: BLE001 - the one error boundary
            reply = _error_reply(exc, self.request_id)
            if reply.status == 500:
                self.log_error(
                    "internal error on %s %s:\n%s",
                    self.command, self.path, traceback.format_exc(),
                )
        self._send(reply)

    def _serve(self) -> Reply:
        url = urlsplit(self.path)
        route, self.tenant, self.params = _match(self.command, url.path)
        self.route = route
        # a malformed header is a 400 on every path, matched or not
        deadline_ms = self._deadline_ms()
        if route is None:
            raise NotFound(f"unknown endpoint {self.command} {self.path!r}")
        if self.server.draining and not route.observability:
            raise Unavailable(
                "server is draining; retry against a healthy replica"
            )
        manager = self.server.replication
        if route.write and manager is not None and not manager.is_leader:
            # The body names the leader so a client library can retarget
            # without re-resolving topology out of band.
            raise Unavailable(
                f"this replica is a follower; {route.method} {route.pattern} "
                "is a write and must go to the leader",
                leader_url=manager.leader_url,
            )
        # last-wins flat view of the query string
        self.query = {k: values[-1] for k, values in parse_qs(url.query).items()}
        self.body = self._read_body()
        if not (route.session and route.method == "POST"):
            reply = self._call()
            return reply if isinstance(reply, Reply) else Reply(200, reply)
        session = self.session
        min_state = self.headers.get("X-Repro-Min-State")
        if min_state and not session.has_state(min_state):
            # read-your-writes: this replica has not yet applied the
            # state the client saw; let it retry here or pin to a
            # replica that has caught up
            raise Unavailable(
                f"replica has not reached state {min_state!r} yet; retry "
                "after replication catches up",
                headers={"X-Repro-State": session.state_token},
                state_token=session.state_token,
            )
        # The trace context closes before the response is sent, so a
        # follow-up /v1/traces?id=<request_id> always finds it.  The
        # deadline scope opens here so the budget covers queue wait
        # and compute but not body parsing already done above.
        with _deadline.scope(deadline_ms), _tracing.trace(
            f"POST {route.pattern}",
            trace_id=self.request_id,
            tags={
                "method": "POST", "route": route.pattern, "tenant": session.tenant
            },
        ):
            response = self._call()
        return Reply(200, self._envelope(response))

    def _call(self):
        """Run the route's handler; retry once on a just-evicted session."""
        try:
            return self.route.handler(self)
        except StoreError as exc:
            # The session may have been evicted (log sealed) between
            # resolution and dispatch; one re-resolve gets the tenant's
            # freshly restored session instead of bouncing a valid
            # request back to the client.
            if "sealed" not in str(exc) or self.tenant is None:
                raise
            self._session = None
            return self.route.handler(self)

    @property
    def session(self) -> ExplainerSession:
        """The addressed session (tenant or default), resolved on first use."""
        if self._session is None:
            if self.tenant is not None:
                if self.server.registry is None:
                    raise NotFound(f"unknown endpoint {self.path!r}")
                self._session = _found(self.server.registry.get, self.tenant)
            elif self.server.session is None:
                raise NotFound(
                    "no default session; address a tenant, e.g. /v1/<name>"
                    + self.route.pattern.removeprefix("/v1")
                )
            else:
                self._session = self.server.session
        return self._session

    def _envelope(self, response: dict) -> dict:
        """Stamp request id and timings onto a session POST's answer.

        An answer from :meth:`ExplainerSession.handle` already names its
        table state (``state_token``, ``table_version``), read under the
        lane, so an update landing since cannot relabel it; a monitor
        registration is stamped with the session's state here.
        """
        # elapsed_ms covers the whole handler — body read, lane wait,
        # compute, serialization — while queue_ms/compute_ms break out
        # the lane's share from the finished trace (both 0.0 on cache
        # hits or with observability disabled).
        queue_ms = compute_ms = 0.0
        record = _tracing.get_tracer().get(self.request_id)
        if record is not None:
            for recorded in record["spans"]:
                if recorded["name"] == "queue_wait":
                    queue_ms += recorded["duration_ms"]
                elif recorded["name"] == "compute":
                    compute_ms += recorded["duration_ms"]
        result = response.get("result")
        if isinstance(result, Mapping) and result.get("degraded"):
            # Hoist the degradation label so clients that only look at
            # the envelope still see that this 200 is an anytime answer.
            response["degraded"] = True
            response["degraded_reason"] = result.get("degraded_reason")
        response.setdefault("table_version", self.session.table_version)
        response.setdefault("state_token", self.session.state_token)
        response["request_id"] = self.request_id
        response["elapsed_ms"] = round((time.perf_counter() - self._started) * 1e3, 3)
        response["queue_ms"] = round(queue_ms, 3)
        response["compute_ms"] = round(compute_ms, 3)
        return response

    def _send(self, reply: Reply) -> None:
        """The one response writer: encode, frame, write, count."""
        data = reply.body
        if isinstance(data, str):
            data = data.encode("utf-8")
        elif not isinstance(data, bytes):
            data = json.dumps(data, default=str).encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (reply.headers or {}).items():
            self.send_header(name, value)
        if reply.status >= 400:
            # Error paths may leave an unread request body on the wire
            # (e.g. an oversized POST rejected before reading); under
            # HTTP/1.1 keep-alive those bytes would be parsed as the next
            # request line, so drop the connection instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)
        if _obs.enabled():
            route = self.route.pattern if self.route else UNMATCHED
            counter, histogram = _http_instruments(
                self.command, route, reply.status
            )
            counter.inc()
            histogram.observe(time.perf_counter() - self._started)

    def _read_body(self) -> dict[str, Any]:
        """The request body, which must be a JSON object (``{}`` if empty)."""
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up
            raise BadRequest(
                "Content-Length must be a non-negative integer, "
                f"got {raw_length!r}"
            )
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            raise BadRequest(
                f"request body truncated: got {len(raw)} of {length} bytes"
            )
        if not raw.strip():
            return {}
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _query_number(self, key: str, default, kind: type = int):
        """Query parameter ``key`` parsed as ``kind`` (400 when malformed)."""
        raw = self.query.get(key)
        if raw is None:
            return default
        try:
            return kind(raw)
        except ValueError as exc:
            raise BadRequest(
                f"query parameter {key!r} must be {kind.__name__}, got {raw!r}"
            ) from exc

    def _deadline_ms(self) -> float | None:
        """Per-request deadline budget in milliseconds, or ``None``.

        The ``X-Repro-Deadline-Ms`` header overrides the server-wide
        ``REPRO_DEADLINE_MS`` default; non-positive values disable the
        deadline for this request.
        """
        raw = self.headers.get("X-Repro-Deadline-Ms")
        if raw is None:
            raw = os.environ.get("REPRO_DEADLINE_MS")
            if raw is None:
                return None
            try:
                value = float(raw)
            except ValueError:
                return None  # a bad server-wide default must not 400 requests
        else:
            try:
                value = float(raw)
            except ValueError as exc:
                raise BadRequest(
                    f"X-Repro-Deadline-Ms must be a number, got {raw!r}"
                ) from exc
        return value if value > 0 else None

    # -- route handlers (see ROUTES) ----------------------------------------

    def _get_healthz(self) -> dict:
        # Pure liveness: answers 200 as long as the process can serve
        # HTTP at all — draining included (the supervisor must not kill
        # a replica that is still answering).
        return {"status": "alive", "draining": self.server.draining}

    def _get_readyz(self) -> dict | Reply:
        """Per-subsystem readiness checks.

        Queue saturation, a degraded WAL and an unwritable store root
        flip readiness, because new work would bounce.
        """
        server = self.server
        checks: dict[str, dict[str, Any]] = {
            "accepting": {"ok": not server.draining, "draining": server.draining}
        }
        session = server.session
        if session is not None:
            scheduler = session.stats()["scheduler"]
            depth = int(scheduler.get("queue_depth", 0))
            cap = int(scheduler.get("max_queue", 0))
            checks["queue"] = {
                "ok": not (cap > 0 and depth >= cap),
                "depth": depth,
                "max_queue": cap,
                "shed": int(scheduler.get("shed", 0)),
                "expired": int(scheduler.get("expired", 0)),
            }
            log = getattr(session, "log", None)
            if log is not None:
                degraded = log.degraded
                checks["wal"] = {
                    "ok": degraded is None,
                    "degraded": degraded,
                    "last_seq": log.last_seq,
                }
        registry = server.registry
        if registry is not None:
            root = registry.store.root
            writable = os.access(root, os.W_OK) and os.access(
                root / "wal", os.W_OK
            )
            checks["store"] = {
                "ok": writable,
                "root": str(root),
                "writable": writable,
                "loaded": registry.loaded(),
            }
        ready = all(check["ok"] for check in checks.values())
        report = {"status": "ready" if ready else "unavailable", "checks": checks}
        if ready:
            return report
        report["request_id"] = self.request_id
        return Reply(503, report, headers={"Retry-After": "1"})

    def _get_metrics(self) -> Reply:
        return Reply(
            200,
            _obs.get_registry().to_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _get_traces(self) -> dict:
        """Finished traces from the in-memory rings."""
        tracer = _tracing.get_tracer()
        trace_id = self.query.get("id")
        if trace_id is not None:
            record = tracer.get(trace_id)
            if record is None:
                raise NotFound(f"unknown trace {trace_id!r}")
            return {"traces": [record], "tracer": tracer.stats()}
        return {
            "traces": tracer.query(
                min_ms=self._query_number("min_ms", 0.0, float),
                limit=self._query_number("limit", 50),
                slow_only=self.query.get("slow", "") in ("1", "true", "yes"),
            ),
            "tracer": tracer.stats(),
        }

    def _registry_wide(self) -> bool:
        """Health/stats on a registry-only server without a tenant: a
        process-level answer that forces no tenant to load."""
        return self.tenant is None and self.server.session is None

    def _get_health(self) -> dict:
        if self._registry_wide():
            registry = self.server.registry
            return {
                "status": "ok",
                "mode": "registry",
                "tenants": len(registry.names()),
                "loaded": registry.loaded(),
            }
        session = self.session
        report = {
            "status": "ok",
            "tenant": session.tenant,
            "fingerprint": session.fingerprint,
            "table_version": session.table_version,
            "state_token": session.state_token,
            "n_rows": len(session.lewis.data),
        }
        log = getattr(session, "log", None)
        if log is not None:
            report["last_seq"] = log.last_seq
        if self.query.get("digest") in ("1", "true", "yes"):
            # canonical engine fingerprint (per-column marginal count
            # tensors): the convergence oracle replicas compare after
            # failover
            report["state_digest"] = session.lewis.estimator.engine.state_digest()
        return report

    def _get_stats(self) -> dict:
        if self._registry_wide():
            stats = self.server.registry.stats()
        else:
            stats = self.session.stats()
            scheduler = self.server.monitors
            attached = scheduler.peek(self.session) if scheduler is not None else None
            if attached is not None:
                stats["monitors"] = attached.stats()
        # one-stop snapshot: each cache above reports as CacheStats;
        # "metrics" is the process-wide registry view.
        stats["metrics"] = _obs.get_registry().snapshot()
        stats["tracing"] = _tracing.get_tracer().stats()
        return stats

    def _get_log(self) -> dict:
        from repro.replication.ship import build_batch

        session = self.session
        kwargs = {"tenant": session.tenant}
        manager = self.server.replication
        if manager is not None:
            kwargs["epoch"] = manager.shipping_epoch()
        limit = self._query_number("max", 0)
        if limit:
            kwargs["limit"] = limit
        return _found(build_batch, session, self._query_number("cursor", 0), **kwargs)

    def _post_update(self) -> dict:
        response = self.session.update(TableDelta.from_json(self.body))
        scheduler = self.server.monitors
        if scheduler is not None:
            # refresh the tenant's standing monitors against the batch
            # just applied, inside this update's trace: an acknowledged
            # update has already refreshed them
            scheduler.notify(self.session)
        return response

    def _monitor_set(self):
        """The addressed session's monitors (attached on first use)."""
        scheduler = self.server.monitors
        if scheduler is None:
            raise NotFound("this server has no monitor scheduler")
        return scheduler.ensure(self.session)

    def _get_monitor(self) -> dict:
        monitor_id = self.params["monitor_id"]
        try:
            return self._monitor_set().get(monitor_id)
        except KeyError as exc:
            raise NotFound(f"unknown monitor {monitor_id!r}") from exc

    def _get_watch(self) -> dict:
        from repro.monitor.monitors import WATCH_DEFAULT_TIMEOUT

        cursor = self._query_number("cursor", 0)
        timeout = self._query_number("timeout", WATCH_DEFAULT_TIMEOUT, float)
        return self._monitor_set().watch(cursor=cursor, timeout=timeout)

    def _registry(self):
        registry = self.server.registry
        if registry is None:
            raise NotFound("this server has no registry")
        return registry

    def _get_registry(self) -> dict:
        registry = self._registry()
        loaded = set(registry.loaded())
        return {
            "tenants": {
                name: {
                    "loaded": name in loaded,
                    "snapshots": len(registry.store.snapshots(name)),
                }
                for name in registry.names()
            },
        }

    def _get_registry_tenant(self) -> dict:
        registry = self._registry()
        name = self.params["tenant"]
        manifest = _found(registry.store.manifest, name)
        return {
            "name": name,
            "loaded": name in registry.loaded(),
            "snapshots": registry.store.snapshots(name),
            "latest": {
                "snapshot_id": manifest["snapshot_id"],
                "wal_seq": manifest["wal_seq"],
                "fingerprint": manifest["session"]["fingerprint"],
                "n_rows": manifest["session"]["n_rows"],
            },
        }

    def _get_registry_object(self) -> Reply:
        """Blob bytes for replication transfer."""
        digest = self.params["digest"]
        if len(digest) != 64 or not set(digest) <= set("0123456789abcdef"):
            # also keeps "." and ".." out of the object path
            raise NotFound(f"no object {digest!r}: not a SHA-256 hex digest")
        data = _found(self._registry().store.get_bytes, digest)
        return Reply(200, data, "application/octet-stream")

    def _post_registry_snapshot(self) -> dict:
        name = self.params["tenant"]
        manifest = _found(self._registry().snapshot, name)
        return {
            "name": name,
            "snapshot_id": manifest["snapshot_id"],
            "wal_seq": manifest["wal_seq"],
        }

    def _post_registry_evict(self) -> dict:
        name = self.params["tenant"]
        return {"name": name, "evicted": _found(self._registry().evict, name)}

    def _delete_registry_tenant(self) -> dict:
        registry = self._registry()
        name = self.params["tenant"]
        scheduler = self.server.monitors
        if scheduler is not None:
            # release the journal handle before the store unlinks it
            scheduler.drop(name)
        return {"name": name, "removed": _found(registry.remove, name)}

    def _replication(self):
        manager = self.server.replication
        if manager is None:
            raise NotFound("this server has no replication manager")
        return manager

    def _post_promote(self) -> dict:
        manager = self._replication()
        catchup_store = self.body.get("catchup_store")
        if catchup_store is not None and not isinstance(catchup_store, str):
            raise BadRequest('"catchup_store" must be a store root path')
        result = manager.promote(
            catchup_store=catchup_store,
            reason=str(self.body.get("reason") or "explicit promotion"),
        )
        result["request_id"] = self.request_id
        return result

    def _post_retarget(self) -> dict:
        manager = self._replication()
        leader_url = self.body.get("leader_url")
        if not leader_url or not isinstance(leader_url, str):
            raise BadRequest('"leader_url" is required')
        manager.retarget(leader_url)
        return {"leader_url": manager.leader_url, "request_id": self.request_id}


def _ask(build: Callable[[Mapping[str, Any]], Any]) -> Callable:
    """Handler for a query route: the session answers the parsed body."""
    return lambda handler: handler.session.handle(build(handler.body))


_H = ExplainerRequestHandler  # the table rows name its route-handler methods

#: the route table: the only place a request path is matched
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", _H._get_healthz, observability=True),
    Route("GET", "/readyz", _H._get_readyz, observability=True),
    Route("GET", "/metrics", _H._get_metrics, observability=True),
    Route("GET", "/v1/traces", _H._get_traces),
    Route("GET", "/v1/health", _H._get_health, session=True),
    Route("GET", "/v1/stats", _H._get_stats, session=True),
    Route("GET", "/v1/log", _H._get_log, session=True),
    Route("GET", "/v1/monitors", lambda h: h._monitor_set().list(), session=True),
    Route("GET", "/v1/monitors/{monitor_id}", _H._get_monitor, session=True),
    Route("GET", "/v1/watch", _H._get_watch, session=True),
    Route("GET", "/v1/registry", _H._get_registry),
    Route("GET", "/v1/registry/{tenant}", _H._get_registry_tenant),
    Route(
        "GET", "/v1/registry/{tenant}/manifest",
        lambda h: _found(h._registry().store.manifest, h.params["tenant"]),
    ),
    Route("GET", "/v1/registry/{tenant}/object/{digest}", _H._get_registry_object),
    Route("GET", "/v1/replication", lambda h: h._replication().status()),
    Route("POST", "/v1/explain/global", _ask(_global_request), session=True),
    Route("POST", "/v1/explain/context", _ask(_context_request), session=True),
    Route("POST", "/v1/explain/local", _ask(_local_request), session=True),
    Route("POST", "/v1/explain/local_batch", _ask(_local_batch_request), session=True),
    Route("POST", "/v1/recourse", _ask(_recourse_request), session=True),
    Route("POST", "/v1/recourse/batch", _ask(_recourse_batch_request), session=True),
    Route("POST", "/v1/audit", _ask(_audit_request), session=True),
    Route("POST", "/v1/scores", _ask(_scores_request), session=True),
    Route("POST", "/v1/update", _H._post_update, session=True, write=True),
    Route(
        "POST", "/v1/monitors", lambda h: h._monitor_set().add(h.body),
        session=True, write=True,
    ),
    Route("POST", "/v1/registry/{tenant}/snapshot", _H._post_registry_snapshot),
    Route("POST", "/v1/registry/{tenant}/evict", _H._post_registry_evict),
    Route("POST", "/v1/replication/promote", _H._post_promote),
    Route("POST", "/v1/replication/retarget", _H._post_retarget),
    Route(
        "DELETE", "/v1/monitors/{monitor_id}",
        lambda h: h._monitor_set().remove(h.params["monitor_id"]),
        session=True, write=True,
    ),
    Route("DELETE", "/v1/registry/{tenant}", _H._delete_registry_tenant, write=True),
)


def create_server(
    session: ExplainerSession | None = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = False,
    registry=None,
    follow: str | None = None,
    auto_promote: bool = False,
) -> ExplainerHTTPServer:
    """Bind a threading HTTP server to a session and/or a registry.

    ``port=0`` auto-picks. The caller owns the lifecycle:
    ``serve_forever()`` to block, ``shutdown()`` + ``server_close()`` to
    stop (``server_close`` drains in-flight handler threads), then close
    the session/registry.  The session and registry need no preparation:
    handler threads call them exactly as an embedded caller would.

    ``follow`` makes this a read-only *follower* of the leader at that
    base URL: it bootstraps every tenant from the leader's snapshots,
    tails each write-ahead log over ``GET /v1/<tenant>/log``, and bounces
    writes with a leader hint.  ``auto_promote`` lets a follower promote
    itself after consecutive leader health-check failures.
    """
    if session is None and registry is None:
        raise ValueError("create_server needs a session, a registry, or both")
    if follow is not None and registry is None:
        raise ValueError("a follower needs a registry (store) to replicate into")
    # Import every instrumented subsystem so /metrics advertises the full
    # family set (TYPE/HELP headers) from the very first scrape, before
    # any labelled series exists.
    _obs.preregister()
    handler = type(
        "BoundHandler", (ExplainerRequestHandler,), {"verbose": verbose}
    )
    server = ExplainerHTTPServer((host, port), handler)
    server.session = session
    server.registry = registry
    from repro.monitor.scheduler import MonitorScheduler

    server.monitors = MonitorScheduler(
        store=registry.store if registry is not None else None
    )
    if registry is not None:
        from repro.replication.manager import ReplicationManager

        server.replication = ReplicationManager(
            registry,
            role="follower" if follow else "leader",
            leader_url=follow,
            auto_promote=auto_promote,
        )
        server.replication.start()
    return server


def serve(
    session: ExplainerSession | None = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = False,
    registry=None,
    checkpoint_on_close: bool = True,
    follow: str | None = None,
    auto_promote: bool = False,
) -> None:
    """Serve until interrupted, then shut down gracefully (CLI entry point).

    SIGTERM and SIGINT trigger the same sequence: stop accepting, drain
    in-flight requests, close the session, and close the store —
    checkpointing every loaded tenant (snapshot + WAL compaction) when
    ``checkpoint_on_close`` is set, so the next boot is warm.
    """
    server = create_server(
        session,
        host=host,
        port=port,
        verbose=verbose,
        registry=registry,
        follow=follow,
        auto_promote=auto_promote,
    )
    bound = server.server_address
    print(f"explanation service listening on http://{bound[0]}:{bound[1]}")

    draining = threading.Event()

    def _graceful(signum, frame):
        if draining.is_set():
            return
        draining.set()
        # Flip the shed gate first: handler threads answering after this
        # point refuse new work with 503 + Retry-After while the accept
        # loop winds down and in-flight requests complete.
        server.draining = True
        print(f"received {signal.Signals(signum).name}; draining and closing store")
        # shutdown() blocks until serve_forever exits; a signal handler
        # runs *inside* that loop's thread, so hand it to a helper.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous: dict[int, Any] = {}
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()  # joins in-flight handler threads
        if server.replication is not None:
            server.replication.stop()
        if server.monitors is not None:
            server.monitors.close()
        if session is not None:
            session.close()
        if registry is not None:
            registry.close(checkpoint=checkpoint_on_close)
