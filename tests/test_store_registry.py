"""Registry: lazy loading, per-tenant isolation, byte-budgeted eviction."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import fit_table_model, load_dataset, train_test_split
from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service.cache import ResultCache
from repro.store import ArtifactStore, Registry, session_footprint
from repro.utils.exceptions import StoreError

NAMES = ("a", "b")


def make_lewis(seed: int, n: int = 120) -> Lewis:
    rng = np.random.default_rng(seed)
    rows = {
        "a": rng.integers(0, 3, n).tolist(),
        "b": rng.integers(0, 3, n).tolist(),
    }
    rows["y"] = [int(a + b >= 2) for a, b in zip(rows["a"], rows["b"])]
    table = Table.from_dict(
        rows, domains={"a": [0, 1, 2], "b": [0, 1, 2], "y": [0, 1]}
    )
    model = fit_table_model("logistic", table, list(NAMES), "y", seed=seed)
    return Lewis(
        model,
        data=table.select(list(NAMES)),
        attributes=list(NAMES),
        positive_outcome=1,
        infer_orderings=False,
    )


@pytest.fixture()
def registry(tmp_path):
    registry = Registry(tmp_path / "store")
    yield registry
    registry.close()


class TestRegistryBasics:
    def test_add_get_names(self, registry):
        registry.add("alpha", make_lewis(1))
        registry.add("beta", make_lewis(2))
        assert registry.names() == ["alpha", "beta"]
        assert "alpha" in registry
        session = registry.get("alpha")
        assert session.tenant == "alpha"
        assert session is registry.get("alpha")  # cached, not reloaded

    def test_duplicate_add_rejected(self, registry):
        registry.add("alpha", make_lewis(1))
        with pytest.raises(StoreError, match="already exists"):
            registry.add("alpha", make_lewis(2))

    def test_unknown_tenant_raises(self, registry):
        with pytest.raises(StoreError, match="unknown tenant"):
            registry.get("ghost")

    def test_lazy_load_from_cold_store(self, tmp_path):
        with Registry(tmp_path / "store") as first:
            first.add("alpha", make_lewis(1))
            answer = first.get("alpha").explain_global(max_pairs_per_attribute=3)
        with Registry(tmp_path / "store") as second:
            assert second.loaded() == []
            again = second.get("alpha").explain_global(max_pairs_per_attribute=3)
            assert second.loaded() == ["alpha"]
        assert again["result"] == answer["result"]

    def test_remove_drops_everything(self, registry):
        registry.add("alpha", make_lewis(1))
        assert registry.remove("alpha")
        assert registry.names() == []
        assert registry.loaded() == []
        with pytest.raises(StoreError, match="unknown tenant"):
            registry.get("alpha")

    def test_concurrent_first_access_loads_once(self, tmp_path):
        with Registry(tmp_path / "store") as warmup:
            warmup.add("alpha", make_lewis(1))
        registry = Registry(tmp_path / "store")
        sessions, errors = [], []

        def fetch():
            try:
                sessions.append(registry.get("alpha"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({id(s) for s in sessions}) == 1
        assert registry.stats()["loads"] == 1
        registry.close()


class TestEviction:
    def test_byte_budget_evicts_lru(self, tmp_path):
        registry = Registry(tmp_path / "store")
        registry.add("alpha", make_lewis(1))
        registry.add("beta", make_lewis(2))
        footprint = session_footprint(registry.get("alpha"))
        registry.close()

        # budget fits one session only
        tight = Registry(tmp_path / "store", max_bytes=int(footprint * 1.5))
        tight.get("alpha")
        tight.get("beta")  # evicts alpha
        assert tight.loaded() == ["beta"]
        # alpha still serves after transparent reload
        assert tight.get("alpha").explain_global()["result"]["ranking"]
        tight.close()

    def test_explicit_evict_keeps_disk_state(self, registry):
        registry.add("alpha", make_lewis(1))
        session = registry.get("alpha")
        session.update({"insert": [{"a": 0, "b": 1}]})
        assert registry.evict("alpha")
        assert registry.loaded() == []
        # the WAL made the update durable through the eviction
        assert len(registry.get("alpha").lewis.data) == 121

    def test_evicted_session_closed(self, registry):
        registry.add("alpha", make_lewis(1))
        session = registry.get("alpha")
        registry.evict("alpha")
        # a closed session still answers (inline dispatch) — eviction
        # can never turn an in-flight request into an error
        assert session.explain_global()["result"]["ranking"]

    def test_stale_reference_update_after_eviction_fails_loudly(self, registry):
        """Eviction seals the WAL: a late update through a stale session
        reference must error, never append into a log the tenant's next
        restored session owns."""
        registry.add("alpha", make_lewis(1))
        stale = registry.get("alpha")
        registry.evict("alpha")
        fresh = registry.get("alpha")  # new owner of the log file
        with pytest.raises(StoreError, match="sealed"):
            stale.update({"insert": [{"a": 0, "b": 0}]})
        # the real owner keeps working, and the log replays cleanly
        fresh.update({"insert": [{"a": 1, "b": 1}]})
        registry.evict("alpha")
        assert len(registry.get("alpha").lewis.data) == 121

    def test_budget_counts_tensors_built_after_load(self, tmp_path):
        """A resident session is accounted at what it holds now: the
        count tensors its engine builds while serving count against the
        budget, not only its size at load."""
        bundle = load_dataset("german", n_rows=300, seed=0)
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "logistic", train, bundle.feature_names, bundle.label, seed=0
        )
        with Registry(tmp_path / "store") as setup:
            for name in ("a", "b"):
                setup.add(name, Lewis(
                    model, data=test, graph=bundle.graph,
                    positive_outcome=bundle.positive_label,
                ))
        with Registry(tmp_path / "store") as probe:
            loaded = session_footprint(probe.get("a"))  # restored: no tensors
        budget = 2 * loaded + loaded // 2
        registry = Registry(tmp_path / "store", max_bytes=budget)
        grown = registry.get("a")
        registry.get("b")
        assert registry.loaded() == ["a", "b"]  # both fit at load size

        grown.explain_global()
        for context in ({"sex": "Female"}, {"housing": "own"}, {"status": "<0 DM"}):
            grown.explain_context(context)
        assert session_footprint(grown) + loaded > budget

        registry.get("a")  # re-accounted at its grown size
        registry.get("b")
        assert "a" not in registry.loaded()
        assert registry.stats()["sessions"]["evictions"] >= 1
        registry.close()

    def test_oversized_tenant_stays_resident(self, tmp_path):
        """A tenant bigger than the whole budget must not be close-looped
        by its own insertion; it stays resident alone."""
        with Registry(tmp_path / "store") as setup:
            setup.add("alpha", make_lewis(1))
        tiny = Registry(tmp_path / "store", max_bytes=64)  # << any session
        session = tiny.get("alpha")
        assert tiny.loaded() == ["alpha"]
        assert tiny.get("alpha") is session  # same object, no reload
        assert session.update({"insert": [{"a": 0, "b": 0}]})["result"]["wal_seq"]
        tiny.close()

    def test_get_hit_refreshes_recency(self, tmp_path):
        with Registry(tmp_path / "store") as setup:
            for name, seed in (("alpha", 1), ("beta", 2), ("gamma", 3)):
                setup.add(name, make_lewis(seed))
        with Registry(tmp_path / "store") as probe:
            footprint = session_footprint(probe.get("alpha"))
        registry = Registry(tmp_path / "store", max_bytes=int(footprint * 2.5))
        registry.get("alpha")
        registry.get("beta")
        registry.get("alpha")  # a hit: alpha is now the most recent
        registry.get("gamma")  # evicts beta, the least recently served
        assert registry.loaded() == ["alpha", "gamma"]
        registry.close()

    def test_accounted_bytes_follow_growth_on_the_next_get(self, registry):
        registry.add("alpha", make_lewis(1))
        session = registry.get("alpha")
        before = registry.stats()["sessions"]["bytes"]
        assert before == session_footprint(session)

        session.explain_global()
        assert session_footprint(session) > before
        assert registry.stats()["sessions"]["bytes"] == before  # not yet seen
        assert registry.get("alpha") is session
        assert registry.stats()["sessions"]["bytes"] == session_footprint(session)

    def test_growth_past_the_budget_is_capped(self, tmp_path):
        """A resident session that grows past the whole budget is
        re-accounted at the budget: it stays resident alone instead of
        being evicted by its own re-accounting."""
        with Registry(tmp_path / "store") as setup:
            setup.add("alpha", make_lewis(1))
        with Registry(tmp_path / "store") as probe:
            loaded = session_footprint(probe.get("alpha"))
        budget = loaded + 64
        registry = Registry(tmp_path / "store", max_bytes=budget)
        session = registry.get("alpha")
        session.explain_global()
        assert session_footprint(session) > budget

        assert registry.get("alpha") is session  # no close/reload loop
        assert registry.loaded() == ["alpha"]
        stats = registry.stats()
        assert stats["sessions"]["bytes"] == budget
        assert stats["sessions"]["evictions"] == 0 and stats["loads"] == 1
        registry.close()


class TestCheckpointing:
    def test_snapshot_compacts_wal(self, registry):
        registry.add("alpha", make_lewis(1))
        session = registry.get("alpha")
        session.update({"insert": [{"a": 0, "b": 1}]})
        assert session.log.stats()["records"] == 1
        manifest = registry.snapshot("alpha")
        assert manifest["wal_seq"] == 1
        assert session.log.stats()["records"] == 0  # compacted

    def test_snapshot_of_unloaded_clean_tenant_is_a_noop(self, tmp_path):
        with Registry(tmp_path / "store") as first:
            first.add("alpha", make_lewis(1))
        registry = Registry(tmp_path / "store")
        manifest = registry.snapshot("alpha")
        assert registry.loaded() == []  # did not need to load
        assert manifest["snapshot_id"] == "00000001"
        registry.close()

    def test_snapshot_of_unloaded_dirty_tenant_loads_and_checkpoints(self, tmp_path):
        with Registry(tmp_path / "store") as first:
            first.add("alpha", make_lewis(1))
            first.get("alpha").update({"insert": [{"a": 2, "b": 2}]})
        registry = Registry(tmp_path / "store")
        manifest = registry.snapshot("alpha")
        assert manifest["snapshot_id"] == "00000002"
        assert manifest["session"]["n_rows"] == 121
        registry.close()

    def test_close_checkpoint_only_when_dirty(self, tmp_path):
        registry = Registry(tmp_path / "store")
        registry.add("alpha", make_lewis(1))
        registry.get("alpha")
        registry.close(checkpoint=True)  # clean: no new snapshot
        store = ArtifactStore(tmp_path / "store")
        assert store.snapshots("alpha") == ["00000001"]

        registry = Registry(tmp_path / "store")
        registry.get("alpha").update({"insert": [{"a": 1, "b": 1}]})
        registry.close(checkpoint=True)  # dirty: checkpointed
        assert store.snapshots("alpha") == ["00000001", "00000002"]


class TestTenantCacheIsolation:
    def test_same_content_tenants_never_cross_serve(self, tmp_path):
        """Two tenants with identical model + data share fingerprint and
        state token; the tenant-scoped cache key must still keep their
        entries apart."""
        cache = ResultCache()
        registry = Registry(tmp_path / "store", cache=cache)
        registry.add("alpha", make_lewis(7))
        registry.add("beta", make_lewis(7))  # same seed: identical content
        alpha, beta = registry.get("alpha"), registry.get("beta")
        assert alpha.fingerprint == beta.fingerprint
        assert alpha.state_token == beta.state_token

        first = alpha.explain_global(max_pairs_per_attribute=3)
        assert first["cached"] is False
        # identical query from the twin tenant: must MISS, not cross-serve
        second = beta.explain_global(max_pairs_per_attribute=3)
        assert second["cached"] is False
        # each tenant hits its own entry afterwards
        assert alpha.explain_global(max_pairs_per_attribute=3)["cached"] is True
        assert beta.explain_global(max_pairs_per_attribute=3)["cached"] is True
        registry.close()

    def test_update_purges_only_that_tenant(self, tmp_path):
        cache = ResultCache()
        registry = Registry(tmp_path / "store", cache=cache)
        registry.add("alpha", make_lewis(7))
        registry.add("beta", make_lewis(7))
        alpha, beta = registry.get("alpha"), registry.get("beta")
        alpha.explain_global(max_pairs_per_attribute=3)
        beta.explain_global(max_pairs_per_attribute=3)

        alpha.update({"insert": [{"a": 0, "b": 0}]})
        # beta's entry survived alpha's purge
        assert beta.explain_global(max_pairs_per_attribute=3)["cached"] is True
        assert alpha.explain_global(max_pairs_per_attribute=3)["cached"] is False
        registry.close()

    def test_stats_shape(self, registry):
        registry.add("alpha", make_lewis(1))
        stats = registry.stats()
        assert stats["tenants"] == ["alpha"]
        assert stats["loaded"] == ["alpha"]
        assert stats["sessions"]["name"] == "sessions"
        assert stats["cache"]["name"] == "result"
        for cache in (stats["sessions"], stats["cache"]):
            assert set(cache) >= {"entries", "bytes", "evictions", "hit_rate"}
        assert "store" in stats
