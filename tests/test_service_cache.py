"""Unit tests for the byte-bounded LRU and the service result cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service.cache import ResultCache, canonical
from repro.service.session import encode_json
from repro.utils.lru import ByteBudgetLRU


class TestByteBudgetLRU:
    def test_get_put_and_hit_miss_counters(self):
        lru = ByteBudgetLRU(max_bytes=100)
        assert lru.get("k") is None
        lru.put("k", "value", size=5)
        assert lru.get("k") == "value"
        stats = lru.stats_struct("k")
        assert stats.as_dict() == {
            "name": "k",
            "entries": 1,
            "bytes": 5,
            "max_bytes": 100,
            "max_entries": None,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_lru_eviction_by_bytes(self):
        lru = ByteBudgetLRU(max_bytes=10)
        lru.put("a", "A", size=4)
        lru.put("b", "B", size=4)
        lru.get("a")  # "a" is now most recent
        lru.put("c", "C", size=4)  # evicts "b"
        assert "a" in lru and "c" in lru and "b" not in lru
        assert lru.stats_struct().evictions == 1
        assert lru.bytes <= 10

    def test_eviction_by_entry_count(self):
        lru = ByteBudgetLRU(max_entries=2)
        for key in "abc":
            lru.put(key, key, size=1)
        assert len(lru) == 2 and "a" not in lru

    def test_oversized_entry_is_evicted_immediately(self):
        lru = ByteBudgetLRU(max_bytes=10)
        lru.put("big", "x", size=50)
        assert len(lru) == 0
        assert lru.stats_struct().evictions == 1

    def test_replace_updates_bytes(self):
        lru = ByteBudgetLRU(max_bytes=100)
        lru.put("k", "v1", size=10)
        lru.put("k", "v2", size=30)
        assert lru.bytes == 30 and len(lru) == 1

    def test_discard_where(self):
        lru = ByteBudgetLRU()
        for i in range(5):
            lru.put(("v", i), i, size=1)
        dropped = lru.discard_where(lambda k: k[1] < 3)
        assert dropped == 3 and len(lru) == 2
        assert lru.stats_struct().evictions == 0  # invalidation is not eviction

    def test_validation(self):
        with pytest.raises(ValueError):
            ByteBudgetLRU(max_bytes=-1)
        with pytest.raises(ValueError):
            ByteBudgetLRU(max_entries=0)

    def test_put_requires_a_size(self):
        lru = ByteBudgetLRU(max_bytes=100)
        with pytest.raises(TypeError):
            lru.put("k", np.zeros(4))
        assert len(lru) == 0 and lru.bytes == 0

    def test_size_is_accounted_as_given(self):
        lru = ByteBudgetLRU(max_bytes=100)
        array = np.zeros(1_000, dtype=np.int64)  # 8,000 bytes of data
        lru.put("t", array, size=7)
        assert "t" in lru and lru.bytes == 7

    def test_reput_refreshes_recency_and_reaccounts(self):
        """Re-putting a resident key at its current size is how a
        holder re-accounts what an entry grew to: the entry becomes most
        recent and the growth evicts the least recent other entry."""
        lru = ByteBudgetLRU(max_bytes=10)
        lru.put("a", "A", size=3)
        lru.put("b", "B", size=3)
        lru.put("a", "A", size=6)
        assert list(lru) == ["b", "a"] and lru.bytes == 9
        lru.put("a", "A", size=8)
        assert list(lru) == ["a"] and lru.bytes == 8
        assert lru.stats_struct().evictions == 1

    def test_on_evict_sees_budget_evictions_only(self):
        evicted = []
        lru = ByteBudgetLRU(
            max_bytes=4, on_evict=lambda key, value: evicted.append((key, value))
        )
        lru.put("a", "A", size=2)
        lru.put("b", "B", size=2)
        lru.put("c", "C", size=2)  # pushes "a" out
        lru.discard("b")
        lru.discard_where(lambda key: key == "c")
        lru.put("d", "D", size=1)
        lru.clear()
        assert evicted == [("a", "A")]

    def test_peek_and_getitem_leave_recency_and_counters_alone(self):
        lru = ByteBudgetLRU(max_bytes=4)
        lru.put("a", "A", size=2)
        lru.put("b", "B", size=2)
        assert lru.peek("a") == "A" and lru["a"] == "A"
        assert lru.peek("missing", "dflt") == "dflt"
        with pytest.raises(KeyError):
            lru["missing"]
        stats = lru.stats_struct()
        assert stats.hits == 0 and stats.misses == 0
        lru.put("c", "C", size=2)  # "a" is still least recent
        assert list(lru) == ["b", "c"]
        assert list(lru.values()) == ["B", "C"]

    def test_clear_drops_entries_and_keeps_statistics(self):
        lru = ByteBudgetLRU(max_bytes=10)
        lru.put("a", "A", size=4)
        lru.get("a")
        lru.get("z")
        lru.clear()
        assert len(lru) == 0 and lru.bytes == 0
        stats = lru.stats_struct()
        assert stats.hits == 1 and stats.misses == 1


class TestCanonical:
    def test_dict_order_and_sequence_type_insensitive(self):
        a = canonical({"x": [1, 2], "y": {"b": 2, "a": 1}})
        b = canonical({"y": {"a": 1, "b": 2}, "x": (1, 2)})
        assert a == b

    def test_numpy_scalars_collapse(self):
        assert canonical({"k": np.int64(3)}) == canonical({"k": 3})

    def test_distinct_payloads_stay_distinct(self):
        assert canonical({"x": 1}) != canonical({"x": 2})
        assert canonical({"x": 1}) != canonical({"y": 1})


class TestResultCache:
    """Bytes in, bytes out: the cache holds the session's encoding and
    hands it back without decoding."""

    def test_round_trip_and_stats(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = ResultCache.key("fp", 0, "explain_global", {"attributes": None})
        assert cache.get(key) is None
        cache.put(key, b'{"ranking":["a","b"]}')
        assert cache.get(key) == b'{"ranking":["a","b"]}'
        stats = cache.stats_struct()
        assert stats.hits == 1 and stats.misses == 1
        # the entry is sized by the length of its bytes
        assert stats.bytes == len(b'{"ranking":["a","b"]}')

    def test_version_partitions_keys(self):
        cache = ResultCache()
        k0 = ResultCache.key("fp", 0, "g", {})
        k1 = ResultCache.key("fp", 1, "g", {})
        cache.put(k0, b'"old"')
        assert cache.get(k1) is None

    def test_purge_stale_is_targeted(self):
        cache = ResultCache()
        cache.put(ResultCache.key("fp", 0, "g", {}), b'"stale"')
        cache.put(ResultCache.key("fp", 1, "g", {}), b'"current"')
        cache.put(ResultCache.key("other", 0, "g", {}), b'"other-session"')
        dropped = cache.purge_stale("fp", 1)
        assert dropped == 1
        assert cache.get(ResultCache.key("fp", 1, "g", {})) == b'"current"'
        assert cache.get(ResultCache.key("other", 0, "g", {})) == b'"other-session"'
        assert cache.stats_struct().extra["invalidations"] == 1

    def test_byte_budget_enforced(self):
        cache = ResultCache(max_bytes=len(b'{"v":0}') * 2)
        for i in range(10):
            cache.put(ResultCache.key("fp", 0, "g", {"i": i}), b'{"v":%d}' % i)
        assert len(cache) <= 2
        assert cache.stats_struct().evictions >= 8

    def test_hits_return_the_stored_bytes(self):
        cache = ResultCache()
        key = ResultCache.key("fp", 0, "g", {})
        encoded = encode_json({"ranking": ["a", "b"], "scores": {"a": 0.5}})
        cache.put(key, encoded)
        assert cache.get(key) is encoded
        assert cache.get(key) is encoded

    def test_entry_is_the_encoding_it_is_sized_by(self):
        cache = ResultCache()
        key = ResultCache.key("fp", 0, "g", {})
        answer = {"x": [1.5, None, True], "s": "caf\u00e9"}
        encoded = encode_json(answer)
        assert encoded == json.dumps(answer, separators=(",", ":")).encode()
        cache.put(key, encoded)
        assert cache.stats_struct().bytes == len(encoded)
        assert json.loads(cache.get(key)) == answer
