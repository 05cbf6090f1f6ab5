"""Unit tests for the counterfactual-fairness auditor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Lewis
from repro.core.fairness import (
    FairnessAuditor,
    demographic_disparity_from_counts,
    group_outcome_counts,
)
from repro.core.monotonicity import (
    empirical_monotonicity_violation,
    monotonicity_from_counts,
)
from repro.data import load_dataset
from repro.data.compas import compas_software_positive
from repro.data.table import Column, Table
from repro.monitor.summaries import compute_summary

from oracles import (
    scalar_scores,
    scan_demographic_disparity,
    scan_monotonicity_violation,
)


@pytest.fixture(scope="module")
def compas_lewis():
    bundle = load_dataset("compas", n_rows=3_000, seed=0)
    features = bundle.table.select(bundle.feature_names)
    return Lewis(
        compas_software_positive,
        data=features,
        feature_names=bundle.feature_names,
        graph=bundle.graph,
    )


@pytest.fixture(scope="module")
def fair_lewis():
    """An algorithm that provably ignores the protected attribute."""
    rng = np.random.default_rng(0)
    n = 20_000
    protected = rng.integers(0, 2, n)
    merit = rng.integers(0, 3, n)
    table = Table(
        [
            Column.from_codes("protected", protected, ("A", "B"), ordered=False),
            Column.from_codes("merit", merit, (0, 1, 2)),
        ]
    )
    from repro.causal.graph import CausalDiagram

    graph = CausalDiagram([], nodes=["protected", "merit"])
    return Lewis(
        lambda t: t.codes("merit") >= 2,
        data=table,
        feature_names=["protected", "merit"],
        graph=graph,
    )


class TestFairnessVerdict:
    def test_biased_software_flagged(self, compas_lewis):
        auditor = FairnessAuditor(compas_lewis)
        verdict = auditor.audit("race")
        assert not verdict.is_counterfactually_fair
        assert verdict.sufficiency > 0.1
        assert verdict.worst_pair is not None

    def test_fair_algorithm_passes(self, fair_lewis):
        auditor = FairnessAuditor(fair_lewis)
        verdict = auditor.audit("protected")
        assert verdict.is_counterfactually_fair
        assert verdict.necessity <= auditor.tolerance
        assert verdict.sufficiency <= auditor.tolerance

    def test_summary_mentions_status(self, compas_lewis, fair_lewis):
        unfair = FairnessAuditor(compas_lewis).audit("race").summary()
        fair = FairnessAuditor(fair_lewis).audit("protected").summary()
        assert "NOT" in unfair
        assert "NOT" not in fair

    @pytest.mark.parametrize("protected", ["race", "sex", "priors_count"])
    def test_audit_matches_per_pair_oracle(self, compas_lewis, protected):
        """The one-batch audit equals a scan of per-pair oracle scores."""
        col = compas_lewis.data.column(protected)
        best_nec, best_suf, worst_pair = 0.0, 0.0, None
        for hi in range(col.cardinality):
            for lo in range(hi):
                triple = scalar_scores(
                    compas_lewis.estimator, {protected: hi}, {protected: lo}
                )
                if max(triple.necessity, triple.sufficiency) > max(best_nec, best_suf):
                    worst_pair = (col.categories[hi], col.categories[lo])
                best_nec = max(best_nec, triple.necessity)
                best_suf = max(best_suf, triple.sufficiency)
        verdict = FairnessAuditor(compas_lewis).audit(protected)
        assert verdict.necessity == pytest.approx(best_nec, abs=1e-12)
        assert verdict.sufficiency == pytest.approx(best_suf, abs=1e-12)
        assert verdict.worst_pair == worst_pair

    @pytest.mark.parametrize("protected", ["race", "sex", "priors_count"])
    def test_monitor_summary_reads_the_verdict(self, compas_lewis, protected):
        """The fairness monitor and the audit share one worst-pair reading."""
        verdict = FairnessAuditor(compas_lewis).audit(protected)
        spec = {"kind": "fairness", "coded": {"attribute": protected, "context": {}}}
        assert compute_summary(compas_lewis, spec) == {
            "max_necessity": verdict.necessity,
            "max_sufficiency": verdict.sufficiency,
            "demographic_disparity": verdict.demographic_disparity,
        }

    def test_audit_all(self, compas_lewis):
        verdicts = FairnessAuditor(compas_lewis).audit_all(["race", "sex"])
        assert [v.attribute for v in verdicts] == ["race", "sex"]

    def test_invalid_tolerance(self, compas_lewis):
        with pytest.raises(ValueError):
            FairnessAuditor(compas_lewis, tolerance=1.5)


class TestDisparities:
    def test_demographic_disparity_non_negative(self, compas_lewis):
        auditor = FairnessAuditor(compas_lewis)
        assert auditor.demographic_disparity("race") >= 0.0

    def test_demographic_disparity_detects_gap(self, compas_lewis):
        # The software is biased: positive rates differ across races.
        auditor = FairnessAuditor(compas_lewis)
        assert auditor.demographic_disparity("race") > 0.1

    def test_fair_algorithm_small_disparity(self, fair_lewis):
        auditor = FairnessAuditor(fair_lewis)
        assert auditor.demographic_disparity("protected") < 0.05

    def test_contextual_disparity_directions(self, compas_lewis):
        auditor = FairnessAuditor(compas_lewis)
        gap = auditor.contextual_disparity(
            "priors_count", {"race": "Black"}, {"race": "White"}
        )
        # Figure 4c: necessity higher for Black defendants.
        assert gap.necessity_gap >= 0.0
        assert gap.attribute == "priors_count"


@st.composite
def count_cases(draw):
    """A small table whose codes and contexts are often empty."""
    x_card = draw(st.integers(1, 5))
    z_card = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    x = draw(st.lists(st.integers(0, x_card - 1), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, z_card - 1), min_size=n, max_size=n))
    positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    context = draw(
        st.one_of(st.just({}), st.integers(0, z_card - 1).map(lambda c: {"z": c}))
    )
    table = Table(
        [
            Column.from_codes("x", np.array(x), range(x_card)),
            Column.from_codes("z", np.array(z), range(z_card)),
        ]
    )
    return table, np.array(positive, dtype=bool), context


class TestCountFormsMatchScans:
    """The count-based diagnostics equal the row scans bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(count_cases())
    def test_disparity_and_monotonicity(self, case):
        table, positive, context = case
        lewis = Lewis(
            lambda features: np.zeros(len(features), dtype=bool),
            data=table,
            feature_names=["x", "z"],
            infer_orderings=False,
            positive_vector=positive,
        )
        estimator = lewis.estimator
        engine, outcome = estimator.engine, estimator._outcome

        disparity = scan_demographic_disparity(table, positive, "x")
        assert FairnessAuditor(lewis).demographic_disparity("x") == disparity
        assert (
            demographic_disparity_from_counts(
                *group_outcome_counts(engine, "x", outcome)
            )
            == disparity
        )

        worst = scan_monotonicity_violation(table, positive, "x", context)
        assert empirical_monotonicity_violation(table, positive, "x", context) == worst
        counted, _violations = monotonicity_from_counts(
            *group_outcome_counts(engine, "x", outcome, context)
        )
        assert counted == worst
