"""The explanation serving layer: sessions, caching, dispatch, updates.

This subpackage turns the LEWIS library into a servable system.  A
:class:`ExplainerSession` owns one model + :class:`~repro.core.lewis
.Lewis` + contingency engine and answers typed request objects; a
byte-bounded :class:`ResultCache` memoises whole responses keyed by
(model fingerprint, table state, canonical query); a
:class:`MicroBatcher` is the session's lane, a lock that runs one
request at a time on its caller's thread; :class:`TableDelta` updates
are encoded once and folded into the engine's count tensors by
``ContingencyEngine.apply_delta``, so standing state is maintained
incrementally instead of rebuilt; and :mod:`repro.service.server` puts a
stdlib JSON-over-HTTP front end on top (``python -m repro.cli serve``).
"""

from repro.service.cache import ResultCache, canonical
from repro.service.scheduler import MicroBatcher
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
    UpdateRequest,
    model_fingerprint,
)
from repro.service.updates import TableDelta
from repro.service.server import create_server, serve

__all__ = [
    "AuditRequest",
    "ContextExplainRequest",
    "ExplainerSession",
    "GlobalExplainRequest",
    "LocalExplainBatchRequest",
    "LocalExplainRequest",
    "MicroBatcher",
    "RecourseBatchRequest",
    "RecourseRequest",
    "ResultCache",
    "ScoresRequest",
    "TableDelta",
    "UpdateRequest",
    "canonical",
    "create_server",
    "model_fingerprint",
    "serve",
]
