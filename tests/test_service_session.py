"""ExplainerSession behaviour: request objects, caching, updates."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.data.table import Table
from repro.service import (
    AuditRequest,
    ContextExplainRequest,
    ExplainerSession,
    GlobalExplainRequest,
    LocalExplainBatchRequest,
    LocalExplainRequest,
    RecourseBatchRequest,
    RecourseRequest,
    ResultCache,
    ScoresRequest,
    TableDelta,
)
from repro.service.session import model_fingerprint


def tiny_model(features: Table) -> np.ndarray:
    """Deterministic stand-in black box: positive iff a + b >= 2."""
    return (features.codes("a") + features.codes("b")) >= 2


def make_table(seed: int = 0, n: int = 240) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2], "sex": ["F", "M"]},
    )


def make_numpy_label_table(seed: int = 0, n: int = 240) -> Table:
    """Like :func:`make_table`, but every a/b label is a numpy integer."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "a": rng.integers(0, 3, n),
            "b": rng.integers(0, 3, n),
            "sex": rng.choice(["F", "M"], n).tolist(),
        },
        domains={"a": np.arange(3), "b": np.arange(3), "sex": ["F", "M"]},
    )


def build_lewis(table: Table | None = None) -> Lewis:
    return Lewis(
        tiny_model,
        data=make_table() if table is None else table,
        feature_names=["a", "b"],
        attributes=["a", "b", "sex"],
        infer_orderings=False,
    )


@pytest.fixture()
def session():
    with ExplainerSession(build_lewis(), default_actionable=["a", "b"]) as s:
        yield s


#: the exact types a plain JSON document decodes to
JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def assert_plain_json(value) -> None:
    """Every value, at any depth, has exactly one of :data:`JSON_TYPES`."""
    assert type(value) in JSON_TYPES, (type(value), value)
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, (type(key), key)
            assert_plain_json(item)
    elif type(value) is list:
        for item in value:
            assert_plain_json(item)


def one_request_per_kind(lewis: Lewis) -> list:
    """One request of each of the eight cacheable kinds."""
    negatives = [int(i) for i in lewis.negative_indices()[:4]]
    return [
        GlobalExplainRequest(),
        ContextExplainRequest(context={"sex": "M"}),
        LocalExplainRequest(index=0),
        LocalExplainBatchRequest(indices=(0, 1, 2)),
        RecourseRequest(index=negatives[0], alpha=0.6),
        RecourseBatchRequest(indices=tuple(negatives), alpha=0.6),
        AuditRequest(),
        ScoresRequest(
            contrasts=(({"a": 2}, {"a": 0}), ({"b": 1}, {"b": 0})),
            context={"sex": "F"},
        ),
    ]


class TestRequestHandling:
    def test_global_matches_direct_lewis_call(self, session):
        response = session.explain_global()
        direct = session.lewis.explain_global()
        assert response["cached"] is False
        assert response["result"]["ranking"] == direct.ranking()
        by_attr = {r["attribute"]: r for r in response["result"]["attributes"]}
        for score in direct.attribute_scores:
            assert by_attr[score.attribute]["necessity"] == score.necessity
            assert by_attr[score.attribute]["sufficiency"] == score.sufficiency

    def test_context_request_coerces_json_labels(self, session):
        # JSON clients send "1"; the domain holds int 1.
        response = session.explain_context({"a": "1"})
        assert response["result"]["context"] == {"a": 1}

    def test_string_labels_resolve_in_queries_and_monitors(self, session):
        """The lenient lookup: ``"2"`` finds the integer category 2 in
        contexts, score contrasts and monitor registrations alike, while
        a row entering the table stays strict."""
        from repro.monitor.monitors import MonitorSet
        from repro.utils.exceptions import DomainError

        context = session.explain_context({"a": "2"})["result"]["context"]
        assert context == {"a": 2}
        as_text = session.scores([({"a": "2"}, {"a": "0"})], context={"b": "1"})
        as_ints = session.scores([({"a": 2}, {"a": 0})], context={"b": 1})
        assert as_text["result"] == as_ints["result"]
        monitors = MonitorSet(session)
        text = {"attribute": "a", "value": "2", "baseline": "0", "context": {"b": "1"}}
        ints = {"attribute": "a", "value": 2, "baseline": 0, "context": {"b": 1}}
        assert (
            monitors.add({"kind": "score", "params": text})["baseline"]
            == monitors.add({"kind": "score", "params": ints})["baseline"]
        )
        with pytest.raises(DomainError):
            session.update({"insert": [{"a": "2", "b": 0, "sex": "F"}]})

    def test_local_by_index_matches_direct(self, session):
        response = session.explain_local(index=5)
        direct = session.lewis.explain_local(index=5)
        assert response["result"]["outcome_positive"] == direct.outcome_positive
        assert [c["attribute"] for c in response["result"]["contributions"]] == [
            c.attribute for c in direct.contributions
        ]

    def test_local_requires_exactly_one_selector(self, session):
        with pytest.raises(ValueError):
            session.handle(LocalExplainRequest(index=None, individual=None))

    def test_scores_match_scores_batch(self, session):
        contrasts = [({"a": 2}, {"a": 0}), ({"b": 2}, {"b": 1})]
        response = session.scores(contrasts)
        direct = session.lewis.scores_batch(contrasts)
        assert [s["necessity"] for s in response["result"]["scores"]] == [
            t.necessity for t in direct
        ]

    def test_audit_defaults_to_known_protected_names(self, session):
        response = session.audit()
        verdicts = response["result"]["verdicts"]
        assert [v["attribute"] for v in verdicts] == ["sex"]
        assert set(verdicts[0]) >= {"necessity", "sufficiency", "is_counterfactually_fair"}

    def test_recourse_without_actionable_raises(self):
        lewis = Lewis(
            tiny_model,
            data=make_table(),
            feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(lewis) as bare:
            with pytest.raises(ValueError, match="actionable"):
                bare.recourse(index=int(lewis.negative_indices()[0]))

    def test_responses_are_json_serializable(self):
        """Computed and cached answers are plain JSON, even when the
        table's labels are numpy integers."""
        lewis = build_lewis(make_numpy_label_table())
        assert isinstance(lewis.data.column("a").categories[0], np.integer)
        with ExplainerSession(lewis, default_actionable=["a", "b"]) as s:
            requests = one_request_per_kind(lewis)
            assert len({r.kind for r in requests}) == 8
            for request in requests:
                for cached in (False, True):
                    response = s.handle(request)
                    assert response["cached"] is cached, request.kind
                    result = response["result"]
                    assert result == json.loads(json.dumps(result)), request.kind
                    assert_plain_json(response)
            update = s.update({"insert": [lewis.data.row(0)], "delete": [1]})
            assert update["result"] == json.loads(json.dumps(update["result"]))
            assert_plain_json(update)


class TestCaching:
    def test_repeat_request_hits_cache(self, session):
        first = session.explain_global()
        second = session.explain_global()
        assert first["cached"] is False and second["cached"] is True
        assert second["result"] == first["result"]
        assert session.cache.stats_struct().hits == 1

    def test_mutating_an_answer_leaves_the_cache_intact(self, session):
        first = session.explain_global()["result"]
        expected = json.loads(json.dumps(first))
        first["ranking"].reverse()  # the computed answer
        hit = session.explain_global()
        assert hit["cached"] is True and hit["result"] == expected
        hit["result"]["ranking"].reverse()  # a served hit
        hit["result"]["attributes"].clear()
        again = session.explain_global()
        assert again["cached"] is True and again["result"] == expected

    def test_distinct_params_miss(self, session):
        session.explain_global()
        response = session.explain_global(max_pairs_per_attribute=2)
        assert response["cached"] is False

    def test_equivalent_requests_share_an_entry(self, session):
        session.handle(GlobalExplainRequest(attributes=("a", "b")))
        response = session.handle(GlobalExplainRequest(attributes=("a", "b")))
        assert response["cached"] is True

    def test_shared_cache_distinguishes_data_states(self):
        """Same model + schema but different rows must never cross-serve."""
        cache = ResultCache()
        lewis_a = Lewis(
            tiny_model, data=make_table(0), feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        lewis_b = Lewis(
            tiny_model, data=make_table(1), feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(lewis_a, cache=cache) as sa, ExplainerSession(
            lewis_b, cache=cache
        ) as sb:
            assert sa.fingerprint == sb.fingerprint  # model + schema agree
            assert sa.state_token != sb.state_token  # content does not
            ra = sa.explain_global()
            rb = sb.explain_global()
            assert ra["cached"] is False and rb["cached"] is False
            assert len(cache) == 2

    def test_shared_cache_serves_identical_sessions(self):
        cache = ResultCache()

        def build():
            return Lewis(
                tiny_model, data=make_table(0), feature_names=["a", "b"],
                attributes=["a", "b", "sex"],
                infer_orderings=False,
            )

        with ExplainerSession(build(), cache=cache) as sa, ExplainerSession(
            build(), cache=cache
        ) as sb:
            assert sa.state_token == sb.state_token
            sa.explain_global()
            assert sb.explain_global()["cached"] is True

    def test_divergent_update_histories_do_not_collide(self):
        """Equal version counters with different deltas must not collide."""
        cache = ResultCache()

        def build():
            return Lewis(
                tiny_model, data=make_table(0), feature_names=["a", "b"],
                attributes=["a", "b", "sex"],
                infer_orderings=False,
            )

        with ExplainerSession(build(), cache=cache) as sa, ExplainerSession(
            build(), cache=cache
        ) as sb:
            sa.update({"delete": [0]})
            sb.update({"delete": [1]})
            assert sa.table_version == sb.table_version == 1
            assert sa.state_token != sb.state_token
            assert sa.explain_global()["cached"] is False
            assert sb.explain_global()["cached"] is False


class KeyProbe(ResultCache):
    """A cache that records each lookup key and answers every lookup,
    so a request's key is known without computing its answer."""

    def get(self, key):
        self.last_key = key
        return {}


#: per cacheable request class: (a base request, a different value for
#: every field, equivalent requests that must share the base's key)
KEY_CASES = [
    (
        GlobalExplainRequest(attributes=("a", "b"), max_pairs_per_attribute=8),
        {"attributes": ("a",), "max_pairs_per_attribute": 2},
        [GlobalExplainRequest(attributes=["a", "b"],
                              max_pairs_per_attribute=np.int64(8))],
    ),
    (
        ContextExplainRequest(context={"a": 1, "sex": "M"}, attributes=("a", "b")),
        {"context": {"a": 2, "sex": "M"}, "attributes": ("b",),
         "max_pairs_per_attribute": 3},
        [ContextExplainRequest(context={"sex": "M", "a": np.int64(1)},
                               attributes=["a", "b"])],
    ),
    (
        LocalExplainRequest(index=3, individual={"a": 1, "b": 2}, attributes=("a",)),
        {"index": 4, "individual": {"a": 1, "b": 0}, "attributes": ("b",)},
        [LocalExplainRequest(index=np.int64(3), individual={"b": 2, "a": 1},
                             attributes=["a"])],
    ),
    (
        LocalExplainBatchRequest(indices=(0, 1, 2), attributes=("a",)),
        {"indices": (0, 1), "attributes": None},
        [LocalExplainBatchRequest(indices=[np.int64(0), 1, 2], attributes=["a"])],
    ),
    (
        RecourseRequest(index=1, actionable=("a", "b"), alpha=0.8),
        {"index": 2, "actionable": ("b",), "alpha": 0.9, "mode": "anytime"},
        [RecourseRequest(index=np.int64(1), actionable=["a", "b"],
                         alpha=np.float64(0.8))],
    ),
    (
        RecourseBatchRequest(indices=(1, 2), actionable=("a", "b"), alpha=0.8),
        {"indices": (1,), "actionable": ("a",), "alpha": 0.7, "mode": "anytime"},
        [RecourseBatchRequest(indices=[np.int64(1), np.int64(2)],
                              actionable=["a", "b"], alpha=np.float64(0.8))],
    ),
    (
        AuditRequest(protected=("sex",), tolerance=0.05),
        {"protected": ("a",), "tolerance": 0.1},
        [AuditRequest(protected=["sex"], tolerance=np.float64(0.05))],
    ),
    (
        ScoresRequest(contrasts=(({"a": 2}, {"a": 0}),), context={"sex": "F", "b": 1}),
        {"contrasts": (({"a": 1}, {"a": 0}),), "context": {"sex": "M", "b": 1}},
        [ScoresRequest(contrasts=[[{"a": np.int64(2)}, {"a": 0}]],
                       context={"b": 1, "sex": "F"})],
    ),
]


class TestCacheKeys:
    @pytest.fixture()
    def key_of(self):
        probe = KeyProbe()
        with ExplainerSession(build_lewis(), cache=probe) as s:

            def key(request):
                assert s.handle(request)["cached"] is True
                return probe.last_key

            yield key

    @pytest.mark.parametrize(
        "base, changes, equivalents", KEY_CASES,
        ids=[type(case[0]).__name__ for case in KEY_CASES],
    )
    def test_key_is_the_request_fields(self, key_of, base, changes, equivalents):
        names = {f.name for f in dataclasses.fields(base)}
        assert set(changes) == names  # every field is exercised
        key = key_of(base)
        assert key[3] == base.kind
        for name, value in changes.items():
            assert key_of(dataclasses.replace(base, **{name: value})) != key, name
        for equivalent in equivalents:
            assert key_of(equivalent) == key

    def test_every_cacheable_kind_is_covered(self):
        kinds = {case[0].kind for case in KEY_CASES}
        assert kinds == {r.kind for r in one_request_per_kind(build_lewis())}


class TestUpdates:
    def test_update_bumps_version_and_invalidates(self, session):
        session.explain_global()
        v0 = session.table_version
        rows = [session.lewis.data.row(i) for i in range(3)]
        response = session.update({"insert": rows, "delete": [0]})
        assert response["result"]["version"] == v0 + 1
        assert response["result"]["purged"] >= 1
        after = session.explain_global()
        assert after["cached"] is False

    def test_update_parity_with_fresh_explainer(self, session):
        rows = [session.lewis.data.row(i) for i in range(10)]
        session.update({"insert": rows, "delete": [2, 4, 6]})
        incremental = session.explain_global()["result"]
        fresh_lewis = Lewis(
            tiny_model,
            data=session.lewis.data,
            feature_names=["a", "b"],
            attributes=["a", "b", "sex"],
            infer_orderings=False,
        )
        with ExplainerSession(fresh_lewis) as fresh:
            rebuilt = fresh.explain_global()["result"]
        assert incremental == rebuilt

    def test_handle_update_request_invalidates_too(self, session):
        """Updates routed through handle() must purge like session.update()."""
        from repro.service import UpdateRequest

        baseline = session.explain_global()
        rows = [session.lewis.data.row(i) for i in range(30)]
        response = session.handle(
            UpdateRequest(delta=TableDelta(insert=tuple(rows)))
        )
        assert response["kind"] == "update"
        assert response["result"]["purged"] >= 1
        after = session.explain_global()
        assert after["cached"] is False
        assert after["result"] != baseline["result"]

    def test_empty_update_keeps_version(self, session):
        v0 = session.table_version
        response = session.update(TableDelta())
        assert response["result"]["version"] == v0
        assert session.table_version == v0

    def test_update_rejects_unknown_label(self, session):
        from repro.utils.exceptions import DomainError

        with pytest.raises(DomainError):
            session.update({"insert": [{"a": 0, "b": 0, "sex": "Martian"}]})

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="unknown update fields"):
            TableDelta.from_json({"upsert": []})
        with pytest.raises(ValueError, match="insert"):
            TableDelta.from_json({"insert": "nope"})
        with pytest.raises(ValueError, match="delete"):
            TableDelta.from_json({"delete": [1.5]})


class TestIntrospection:
    def test_stats_shape(self, session):
        session.explain_global()
        stats = session.stats()
        assert stats["requests_served"] == 1
        assert stats["table_version"] == 0
        for section in ("scheduler", "caches", "solver"):
            assert isinstance(stats[section], dict)
        for flat in ("cache", "engine", "local_models"):
            assert flat not in stats
        assert set(stats["caches"]) == {"result", "tensor", "local_model"}
        assert stats["caches"]["result"]["misses"] == 1
        json.dumps(stats)

    @pytest.mark.parametrize("knob", ["batch_window", "max_batch"])
    def test_removed_batching_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            ExplainerSession(build_lewis(), **{knob: 1})

    def test_fingerprint_stable_and_model_sensitive(self, session):
        table = make_table()
        assert model_fingerprint(tiny_model, table) == model_fingerprint(
            tiny_model, table
        )

    def test_render_service_stats(self, session):
        from repro.report import render_service_stats

        session.explain_global()
        text = render_service_stats(session.stats(), title="stats")
        assert text.startswith("stats")
        lines = text.splitlines()
        # nested sections render as indented blocks, one per cache
        assert "caches:" in lines and "  result:" in lines
        assert any(line.startswith("    hits") for line in lines)
        assert not any("{" in line for line in lines)
