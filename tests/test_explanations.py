"""Unit tests for explanation objects and builders."""

import pytest

from repro.core.explanations import (
    AttributeScore,
    GlobalExplanation,
    LocalContribution,
    LocalExplanation,
    build_global_explanation,
    build_local_explanation,
)
from repro.core.scores import ScoreEstimator


@pytest.fixture(scope="module")
def builder_setup(toy_scm):
    table = toy_scm.sample(15_000, seed=41).select(["Z", "X"])
    positive = (table.codes("X") + table.codes("Z")) >= 2
    est = ScoreEstimator(table, positive, diagram=toy_scm.diagram.subgraph(["Z", "X"]))
    return table, positive, est


class TestAttributeScore:
    def test_score_lookup(self):
        s = AttributeScore("a", necessity=0.1, sufficiency=0.2, necessity_sufficiency=0.3)
        assert s.score("necessity") == 0.1
        assert s.score("sufficiency") == 0.2
        assert s.score("necessity_sufficiency") == 0.3

    def test_unknown_kind(self):
        s = AttributeScore("a", 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            s.score("magic")


class TestGlobalExplanation:
    def _explanation(self):
        return GlobalExplanation(
            context={},
            attribute_scores=[
                AttributeScore("a", 0.9, 0.1, 0.5),
                AttributeScore("b", 0.2, 0.8, 0.7),
            ],
        )

    def test_ranking_by_kind(self):
        exp = self._explanation()
        assert exp.ranking("necessity") == ["a", "b"]
        assert exp.ranking("sufficiency") == ["b", "a"]
        assert exp.ranking("necessity_sufficiency") == ["b", "a"]

    def test_rank_of(self):
        exp = self._explanation()
        assert exp.rank_of("a", "necessity") == 1
        assert exp.rank_of("a", "sufficiency") == 2

    def test_score_of_unknown(self):
        with pytest.raises(KeyError):
            self._explanation().score_of("zzz")

    def test_as_rows(self):
        rows = self._explanation().as_rows()
        assert rows[0]["attribute"] == "a"
        assert rows[1]["sufficiency"] == 0.8


class TestBuildGlobalExplanation:
    def test_scores_every_attribute(self, builder_setup):
        _t, _p, est = builder_setup
        exp = build_global_explanation(est, ["Z", "X"])
        assert {s.attribute for s in exp.attribute_scores} == {"Z", "X"}

    def test_context_attribute_skipped(self, builder_setup):
        _t, _p, est = builder_setup
        exp = build_global_explanation(est, ["Z", "X"], context={"Z": 1})
        assert {s.attribute for s in exp.attribute_scores} == {"X"}

    def test_best_pairs_recorded_with_labels(self, builder_setup):
        _t, _p, est = builder_setup
        exp = build_global_explanation(est, ["X"])
        s = exp.score_of("X")
        assert s.best_pair_sufficiency is not None
        hi, lo = s.best_pair_sufficiency
        assert hi in (0, 1, 2) and lo in (0, 1, 2)

    def test_max_pairs_cap_prefers_extremes(self, builder_setup):
        _t, _p, est = builder_setup
        capped = build_global_explanation(est, ["X"], max_pairs_per_attribute=1)
        full = build_global_explanation(est, ["X"])
        # The extreme pair carries the max here, so capping is lossless.
        assert capped.score_of("X").necessity_sufficiency == pytest.approx(
            full.score_of("X").necessity_sufficiency
        )

    def test_context_labels_recorded(self, builder_setup):
        _t, _p, est = builder_setup
        exp = build_global_explanation(est, ["X"], context={"Z": 1})
        assert exp.context == {"Z": 1}

    def test_statements_render(self, builder_setup):
        _t, _p, est = builder_setup
        statements = build_global_explanation(est, ["X", "Z"]).statements(top=2)
        assert statements
        assert all("instead of" in s for s in statements)


class TestLocalExplanation:
    def test_contribution_net(self):
        c = LocalContribution("a", "v", positive=0.7, negative=0.2)
        assert c.net == pytest.approx(0.5)

    def test_ranking_modes(self):
        exp = LocalExplanation(
            individual={},
            outcome_positive=False,
            contributions=[
                LocalContribution("a", "v", positive=0.9, negative=0.1),
                LocalContribution("b", "w", positive=0.2, negative=0.8),
            ],
        )
        assert exp.ranking("negative") == ["b", "a"]
        assert exp.ranking("positive") == ["a", "b"]
        assert exp.ranking("net")[0] == "a"

    def test_contribution_of_unknown(self):
        exp = LocalExplanation({}, False, [])
        with pytest.raises(KeyError):
            exp.contribution_of("zzz")


class TestBuildLocalExplanation:
    def test_negative_individual_negative_contribution(self, builder_setup):
        table, _p, est = builder_setup
        # Z=1, X=0: negative outcome; raising X flips it.
        exp = build_local_explanation(
            est,
            table.encode_rows([{"Z": 1, "X": 0}]),
            outcome_positive=False,
            attributes=["Z", "X"],
        )
        x = exp.contribution_of("X")
        assert x.negative > 0.9
        assert x.negative_foil in (1, 2)
        assert x.positive == 0.0  # X is at its lowest value

    def test_positive_individual_positive_contribution(self, builder_setup):
        table, _p, est = builder_setup
        # Z=1, X=2: positive outcome; dropping X to 0 flips it.
        exp = build_local_explanation(
            est,
            table.encode_rows([{"Z": 1, "X": 2}]),
            outcome_positive=True,
            attributes=["X"],
        )
        x = exp.contribution_of("X")
        assert x.positive > 0.9
        assert x.positive_foil == 0

    def test_statements_direction_negative(self, builder_setup):
        table, _p, est = builder_setup
        exp = build_local_explanation(
            est,
            table.encode_rows([{"Z": 1, "X": 0}]),
            outcome_positive=False,
            attributes=["X"],
        )
        sentences = exp.statements(top=1)
        assert sentences and "approved" in sentences[0]

    def test_statements_direction_positive(self, builder_setup):
        table, _p, est = builder_setup
        exp = build_local_explanation(
            est,
            table.encode_rows([{"Z": 1, "X": 2}]),
            outcome_positive=True,
            attributes=["X"],
        )
        sentences = exp.statements(top=1)
        assert sentences and "rejected" in sentences[0]

    def test_individual_decoded(self, builder_setup):
        table, _p, est = builder_setup
        exp = build_local_explanation(
            est,
            table.encode_rows([{"Z": 1, "X": 2}]),
            outcome_positive=True,
            attributes=["X"],
        )
        # Echoed in the table's column order.
        assert list(exp.individual.items()) == [("Z", 1), ("X", 2)]
