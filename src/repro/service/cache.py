"""Byte-bounded result cache for the explanation service.

Explanation responses are pure functions of *(model, data, query)*:
the same black box over the same table state answers the same request
identically, so the serving layer can memoise whole responses.  The
cache key is ``(tenant, model fingerprint, table state, canonical
query)`` — the tenant scopes entries to one registry principal, the
fingerprint pins the model, the session's state token pins the table
state, and :func:`canonical` makes structurally equal queries (dict
ordering, list vs tuple, numpy scalars) collide.

Storage is a :class:`~repro.utils.lru.ByteBudgetLRU` of JSON-encoded
answers: an entry holds the bytes the session encoded once and is sized
by their length, so the budget (``--cache-mb`` on the CLI) counts what
the cache actually keeps.  :meth:`ResultCache.get` returns those bytes
undecoded, for the HTTP server to write into its response as they are;
bytes are immutable, so no caller can change an entry under the next
one.  A data update does not clear the cache:
:meth:`ResultCache.purge_stale` drops only the entries keyed to
superseded versions of the updated model/table pair and leaves
everything else hot.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Mapping

from repro.utils.lru import ByteBudgetLRU


def canonical(value: Any) -> Hashable:
    """Recursively convert a query payload to a hashable canonical form.

    Mappings become sorted ``(key, value)`` tuples, sequences become
    tuples, sets become sorted tuples, and numpy scalars collapse to
    their Python equivalents via ``item()``.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(canonical(v) for v in value))
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", 1) == 0:
        return item()
    return value


class ResultCache:
    """LRU explanation cache keyed by (fingerprint, version, query).

    Parameters
    ----------
    max_bytes:
        Budget on the summed byte lengths of the JSON-encoded answers.
    max_entries:
        Optional additional entry-count bound.
    """

    def __init__(self, max_bytes: int | None = 32 << 20, max_entries: int | None = None):
        self._lru = ByteBudgetLRU(max_bytes=max_bytes, max_entries=max_entries)
        self._invalidations = 0
        # The cache may be shared by several sessions serving concurrent
        # traffic; the underlying LRU is not thread-safe, so every access
        # is guarded here rather than by any one session's lock.
        self._lock = threading.Lock()

    @staticmethod
    def key(
        fingerprint: str,
        state: Any,
        kind: str,
        params: Mapping[str, Any],
        tenant: str = "",
    ) -> tuple:
        """Build the canonical cache key for one request.

        ``state`` is the session's table-state token — a content-seeded
        hash chain advanced by every delta, not a bare counter, so two
        sessions whose update histories diverge can never collide even
        when they share a model, a schema, and a version number.

        ``tenant`` is the registry name the session serves under. It is
        part of the key because fingerprint + state pin only *content*:
        two tenants serving the same model over the same table state are
        still distinct principals, and a shared cache must never hand one
        tenant a response computed for the other.
        """
        return (str(tenant), str(fingerprint), str(state), str(kind), canonical(params))

    def get(self, key: tuple) -> bytes | None:
        """The stored JSON bytes for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            return self._lru.get(key)

    def put(self, key: tuple, encoded: bytes) -> None:
        """Store an answer's JSON bytes, sized by their length."""
        with self._lock:
            self._lru.put(key, encoded, size=len(encoded))

    def purge_stale(
        self, fingerprint: str, current_state: Any, tenant: str = ""
    ) -> int:
        """Drop the tenant's ``fingerprint`` entries not keyed to ``current_state``.

        Entries for other tenants or fingerprints (other sessions sharing
        the cache) are untouched.  Returns the number of entries dropped.
        """
        scope = (str(tenant), str(fingerprint))
        current = str(current_state)
        with self._lock:
            dropped = self._lru.discard_where(
                lambda k: k[:2] == scope and k[2] != current
            )
            self._invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        with self._lock:
            self._lru.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def stats_struct(self) -> "CacheStats":
        """Unified :class:`~repro.obs.metrics.CacheStats` view."""
        with self._lock:
            return self._lru.stats_struct("result").with_extra(
                {"invalidations": self._invalidations}
            )
