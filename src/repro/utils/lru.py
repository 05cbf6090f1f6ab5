"""A byte-budgeted LRU cache with hit/miss/eviction accounting.

Six caches in the system share it: the
:class:`~repro.estimation.engine.ContingencyEngine`'s count tensors, the
:class:`~repro.service.cache.ResultCache` of encoded answers, the
:class:`~repro.store.registry.Registry`'s loaded sessions, and three
entry-bounded memos (a :class:`~repro.core.lewis.Lewis`'s recourse
solvers, a solver's signature solutions, a score estimator's local
models).  They need the same three things: least-recently-used
eviction, an *approximate byte* budget rather than an entry count
(tensor and response sizes vary by orders of magnitude), and
introspectable statistics so operators can size the budget from
observed hit rates.  :class:`ByteBudgetLRU` provides all three behind a
dict-like interface; every :meth:`~ByteBudgetLRU.put` names its entry's
size, and :meth:`ByteBudgetLRU.stats_struct` reports the counters as
:class:`~repro.obs.metrics.CacheStats`, the one statistics schema every
cache in the system shares.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator


class ByteBudgetLRU:
    """LRU mapping bounded by an approximate total byte size.

    Parameters
    ----------
    max_bytes:
        Soft budget on the summed entry sizes. ``None`` disables the
        byte bound. An entry larger than the whole budget is evicted
        immediately after insertion (the cache never lies about its
        bound), but the caller still receives the computed value.
    max_entries:
        Optional additional bound on the entry count.
    on_evict:
        Optional ``on_evict(key, value)`` hook invoked for every entry
        the budget pushes out (not for explicit :meth:`discard` /
        :meth:`clear`). Lets owners of stateful values — e.g. a session
        registry evicting live explainer sessions — release resources
        exactly when the LRU lets go of them.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        on_evict: Callable[[Hashable, Any], None] | None = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._on_evict = on_evict
        self._items: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- mapping interface -------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def values(self) -> Iterator[Any]:
        """The cached values, least recently used first (no counters)."""
        return (value for value, _size in self._items.values())

    def __getitem__(self, key: Hashable) -> Any:
        """Dict-style access with :meth:`peek` semantics (no counters)."""
        entry = self._items.get(key)
        if entry is None:
            raise KeyError(key)
        return entry[0]

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (counting a hit) or ``default`` (a miss)."""
        entry = self._items.get(key)
        if entry is None:
            self._misses += 1
            return default
        self._hits += 1
        self._items.move_to_end(key)
        return entry[0]

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching recency or hit counters."""
        entry = self._items.get(key)
        return default if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, size: int) -> None:
        """Insert/replace ``key`` (``size`` bytes); evict LRU entries over budget."""
        size = int(size)
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._items[key] = (value, size)
        self._bytes += size
        self._shrink()

    def discard(self, key: Hashable) -> bool:
        """Drop ``key`` if present (not counted as an eviction)."""
        entry = self._items.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry[1]
        return True

    def discard_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; return count.

        This is the targeted-invalidation hook: a table update drops only
        the entries keyed to superseded versions and leaves the rest hot.
        """
        stale = [k for k in self._items if predicate(k)]
        for key in stale:
            self.discard(key)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        self._items.clear()
        self._bytes = 0

    def _shrink(self) -> None:
        while self._items and (
            (self.max_bytes is not None and self._bytes > self.max_bytes)
            or (self.max_entries is not None and len(self._items) > self.max_entries)
        ):
            key, (value, size) = self._items.popitem(last=False)
            self._bytes -= size
            self._evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)

    # -- introspection -----------------------------------------------------

    @property
    def bytes(self) -> int:
        """Approximate total size of the cached values."""
        return self._bytes

    def stats_struct(self, name: str = "lru") -> "CacheStats":
        """Counters as the unified :class:`~repro.obs.metrics.CacheStats`.

        This is the one cache-statistics schema in the system; every
        cache exports it through the metrics registry as
        ``repro_cache_*{cache=...}`` gauges.
        """
        from repro.obs.metrics import CacheStats

        return CacheStats.from_lru(name, self)
