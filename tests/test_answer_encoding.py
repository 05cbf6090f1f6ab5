"""One-pass answer encoding: ``encode_json`` against the ``jsonable`` oracle.

The session encodes each computed answer once with the C encoder and a
numpy hook (:func:`repro.service.session.encode_json`).  These tests hold
its bytes to the recursive walk it replaced plus ``json.dumps``
(:func:`oracles.answer_json_oracle`): on a corpus of the non-JSON types
an answer can hold, and on one real answer of every cacheable kind over
the adult and german replicas.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest

from oracles import answer_json_oracle
from repro import Lewis, fit_table_model, load_dataset, train_test_split
from repro.service import (
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
from repro.service.session import encode_json, plain_json

CORPUS = {
    "numpy scalars": [
        np.int64(-3), np.int32(7), np.uint8(255), np.float64(0.1),
        np.float32(0.1), np.bool_(True), np.bool_(False), np.str_("café"),
    ],
    "numpy arrays": {
        "ints": np.arange(4, dtype=np.int64),
        "floats": np.array([[0.5, 1e-300], [np.nan, -np.inf]]),
        "bools": np.array([True, False]),
        "empty": np.zeros((0, 3)),
        "labels": np.array(["<25 yr", ">50 yr"]),
    },
    "sets": [{3}, frozenset({"a"}), {np.int64(2)}, set()],
    "non-finite floats": [math.nan, math.inf, -math.inf, np.float64(np.nan)],
    "non-dict mappings": [
        MappingProxyType({"b": np.int64(1), "a": [np.float32(2.5)]}),
        MappingProxyType({1: "int key", 2.5: "float key"}),
        OrderedDict([("z", 1), ("y", (2, 3))]),
    ],
    "tuples and nesting": (
        (np.int64(1), ("x", None)),
        [{"k": {"j": np.array([1, 2])}}],
    ),
    "int and float keys": {1: "one", 2.5: "two and a half"},
}


class TestEncoderCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_bytes_equal_the_oracle(self, name):
        value = CORPUS[name]
        assert encode_json(value) == answer_json_oracle(value)

    def test_whole_corpus_in_one_value(self):
        assert encode_json(CORPUS) == answer_json_oracle(CORPUS)

    def test_plain_values_are_compact_json(self):
        value = {"x": [1.5, None, True], "s": "café", "t": (1, 2)}
        assert encode_json(value) == json.dumps(value, separators=(",", ":")).encode()

    def test_decoded_copy_holds_plain_types(self):
        decoded = plain_json(CORPUS["numpy scalars"])
        assert decoded == [-3, 7, 255, 0.1, float(np.float32(0.1)), True, False, "café"]
        assert all(type(v) in (int, float, bool, str) for v in decoded)

    def test_unknown_types_are_refused_not_stringified(self):
        with pytest.raises(TypeError, match="object"):
            encode_json({"x": object()})


# -- one real answer per cacheable kind ------------------------------------------


def build_session(name: str, n_rows: int) -> ExplainerSession:
    bundle = load_dataset(name, n_rows=n_rows, seed=0)
    train, test = train_test_split(bundle.table, seed=0)
    model = fit_table_model(
        "random_forest", train, bundle.feature_names, bundle.label,
        seed=0, n_estimators=5, max_depth=6,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph, positive_outcome=bundle.positive_label
    )
    return ExplainerSession(lewis, default_actionable=bundle.actionable)


#: dataset -> (rows, a contrast of one attribute's two labels)
DATASETS = {
    "adult": (2000, ({"edu": "masters+"}, {"edu": "dropout"})),
    "german": (600, ({"savings": ">1000 DM"}, {"savings": "<100 DM"})),
}


def requests_for(session: ExplainerSession, contrast) -> list:
    """One request of each of the eight cacheable kinds."""
    negatives = [int(i) for i in session.lewis.negative_indices()[:8]]
    audit = session.lewis.recourse_audit(
        session.default_actionable, alpha=0.6, indices=negatives
    )
    feasible = [i for i, r in zip(negatives, audit["recourses"]) if r is not None]
    return [
        GlobalExplainRequest(max_pairs_per_attribute=4),
        ContextExplainRequest(context={"sex": "Male"}),
        LocalExplainRequest(index=0),
        LocalExplainBatchRequest(indices=(0, 1, 2, 3, 4, 5)),
        RecourseRequest(index=feasible[0], alpha=0.6),
        RecourseBatchRequest(indices=tuple(negatives), alpha=0.6),
        AuditRequest(),
        ScoresRequest(contrasts=(contrast,), context={"sex": "Female"}),
    ]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_cacheable_kind_encodes_like_the_oracle(dataset):
    n_rows, contrast = DATASETS[dataset]
    with build_session(dataset, n_rows) as session:
        requests = requests_for(session, contrast)
        assert len({r.kind for r in requests}) == 8
        for request in requests:
            answer, _stamp = session._batcher.run(request.kind, request)
            expected = answer_json_oracle(answer)
            assert encode_json(answer) == expected, request.kind
            miss = session.handle(request, encoded=True)
            hit = session.handle(request, encoded=True)
            assert (miss["cached"], hit["cached"]) == (False, True), request.kind
            assert miss["result"] == hit["result"] == expected, request.kind
            # embedded callers get the same answer, decoded
            decoded = session.handle(request)
            assert decoded["cached"] is True
            assert decoded["result"] == json.loads(expected), request.kind
