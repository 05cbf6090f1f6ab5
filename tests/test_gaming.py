"""Tests for the recourse gaming audit (Section 6 future work)."""

import numpy as np
import pytest

from repro.causal.equations import logistic_binary, root_categorical
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.core.gaming import GamingReport, audit_recourse_gaming
from repro.core.recourse import Recourse, RecourseAction


@pytest.fixture(scope="module")
def proxy_scm():
    """merit -> label; proxy -> nothing (pure classifier bait).

    The true label depends only on merit; 'proxy' is an independent
    feature a (bad) classifier might rely on.
    """
    eqs = [
        StructuralEquation("merit", (), (0, 1, 2), root_categorical([0.4, 0.4, 0.2])),
        StructuralEquation("proxy", (), (0, 1, 2), root_categorical([0.5, 0.3, 0.2])),
        StructuralEquation(
            "label", ("merit",), (0, 1), logistic_binary({"merit": 2.0}, bias=-2.0)
        ),
    ]
    return StructuralCausalModel(eqs)


def _recourse(attribute, current, new):
    return Recourse(
        actions=[RecourseAction(attribute, current, new, 1.0)],
        total_cost=1.0,
        estimated_sufficiency=0.9,
        estimated_probability=0.9,
        threshold=0.9,
        n_constraints=2,
        n_variables=2,
    )


class TestGamingAudit:
    def test_merit_recourse_is_not_gaming(self, proxy_scm):
        """Raising merit helps both the classifier and the true label."""
        report = audit_recourse_gaming(
            _recourse("merit", 0, 2),
            proxy_scm,
            predict_positive=lambda t: t.codes("merit") >= 1,
            label="label",
            seed=0,
        )
        assert report.classifier_gain > 0.2
        assert report.true_label_gain > 0.1
        assert not report.is_gaming()

    def test_proxy_recourse_is_gaming(self, proxy_scm):
        """A classifier keyed on the proxy is gamed by moving the proxy."""
        report = audit_recourse_gaming(
            _recourse("proxy", 0, 2),
            proxy_scm,
            predict_positive=lambda t: t.codes("proxy") >= 1,
            label="label",
            seed=0,
        )
        assert report.classifier_gain > 0.2
        assert abs(report.true_label_gain) < 0.05
        assert report.is_gaming()
        assert report.gaming_index > 0.2

    def test_empty_recourse_gains_nothing(self, proxy_scm):
        empty = Recourse(
            actions=[], total_cost=0.0, estimated_sufficiency=1.0,
            estimated_probability=0.9, threshold=0.9, n_constraints=0, n_variables=0,
        )
        report = audit_recourse_gaming(
            empty,
            proxy_scm,
            predict_positive=lambda t: t.codes("merit") >= 1,
            label="label",
            seed=0,
        )
        assert report.classifier_gain == pytest.approx(0.0)
        assert report.true_label_gain == pytest.approx(0.0)

    def test_report_dataclass(self):
        report = GamingReport(classifier_gain=0.5, true_label_gain=0.1)
        assert report.gaming_index == pytest.approx(0.4)
        assert report.is_gaming(tolerance=0.3)
        assert not report.is_gaming(tolerance=0.5)

    def test_end_to_end_with_real_recourse(self):
        """Audit a solver-produced recourse on the wide SCM: by
        construction every feature truly causes the outcome, so a valid
        recourse is never gaming."""
        from repro import load_dataset
        from repro.core.recourse import RecourseSolver
        from repro.core.scores import ScoreEstimator

        bundle = load_dataset("wide", n_variables=6, n_rows=5_000, seed=0)
        table = bundle.table.select(bundle.feature_names)
        positive = bundle.table.codes("outcome").astype(bool)
        estimator = ScoreEstimator(table, positive, diagram=bundle.graph)
        solver = RecourseSolver(estimator, bundle.feature_names)
        negatives = np.nonzero(~positive)[0]
        answers = solver.solve_batch(
            table.take(negatives[:10]), alpha=0.6, on_infeasible="none"
        )
        for recourse in answers:
            if recourse is None or recourse.is_empty:
                continue
            report = audit_recourse_gaming(
                recourse,
                bundle.scm,
                predict_positive=lambda t: np.ones(len(t), bool),  # placeholder
                label="outcome",
                feature_names=bundle.feature_names,
                seed=0,
            )
            # The true label gain is positive: the intervention raises
            # the real outcome mechanism, not just a classifier.
            assert report.true_label_gain > 0.0
            break
        else:
            pytest.skip("no solvable recourse found")
