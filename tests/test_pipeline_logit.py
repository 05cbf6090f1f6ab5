"""Unit tests for TableModel / fit_table_model and the logit models."""

import numpy as np
import pytest

from repro.core.scores import ScoreEstimator
from repro.data.table import Column, Table
from repro.estimation.logit import LogitModel, logit
from repro.estimation.outcome_model import OutcomeProbabilityModel
from repro.models.pipeline import MODEL_KINDS, TableModel, fit_table_model
from repro.models.forest import RandomForestClassifier


def fitted(model, table, positive):
    """``model`` fitted from the count cells of ``table`` under ``positive``."""
    estimator = ScoreEstimator(table.select(model.features), positive)
    return model.fit(*estimator.outcome_cells(model.features))


def probability(model, *codes) -> float:
    """``Pr(o | features = codes)`` for one assignment, in feature order."""
    return float(model.probability_codes_batch(np.array([codes]))[0])


@pytest.fixture(scope="module")
def labelled_table():
    rng = np.random.default_rng(17)
    n = 2_000
    a = rng.integers(0, 3, size=n)
    b = rng.integers(0, 2, size=n)
    label = ((a + b) >= 2).astype(int)
    return Table(
        [
            Column.from_codes("a", a, (0, 1, 2)),
            Column.from_codes("b", b, (0, 1)),
            Column.from_codes("y", label, ("no", "yes")),
        ]
    )


@pytest.fixture(scope="module")
def wide_table():
    """Eight 5-category attributes: enough one-hot columns for BLAS to vary."""
    rng = np.random.default_rng(0)
    n = 1_500
    codes = {f"x{j}": rng.integers(0, 5, n) for j in range(8)}
    table = Table.from_codes(codes, domains={c: list(range(5)) for c in codes})
    z = sum((j % 3 - 1) * table.codes(f"x{j}") for j in range(8))
    return table, z + rng.normal(0, 2, n) > 0


class TestTableModel:
    def test_fit_predict_codes(self, labelled_table):
        model = fit_table_model("random_forest", labelled_table, ["a", "b"], "y", seed=0)
        codes = model.predict_codes(labelled_table)
        assert set(codes) <= {0, 1}
        assert model.accuracy(labelled_table, "y") > 0.95

    def test_predict_labels(self, labelled_table):
        model = fit_table_model("logistic", labelled_table, ["a", "b"], "y")
        labels = model.predict_labels(labelled_table)
        assert set(labels) <= {"no", "yes"}

    def test_predict_proba_shape(self, labelled_table):
        model = fit_table_model("xgboost", labelled_table, ["a", "b"], "y", seed=0)
        proba = model.predict_proba(labelled_table)
        assert proba.shape == (len(labelled_table), 2)

    def test_regressor_path(self):
        rng = np.random.default_rng(2)
        n = 800
        a = rng.integers(0, 4, size=n)
        score = a / 3.0
        bins = tuple(np.round(np.linspace(0, 1, 4), 4))
        table = Table(
            [
                Column.from_codes("a", a, (0, 1, 2, 3)),
                Column.from_codes("s", a, bins),  # label value = a/3 bin
            ]
        )
        model = fit_table_model("random_forest_regressor", table, ["a"], "s", seed=0)
        values = model.predict_value(table)
        assert np.corrcoef(values, score)[0, 1] > 0.99

    def test_classifier_guard_on_regressor_methods(self, labelled_table):
        model = fit_table_model("random_forest", labelled_table, ["a", "b"], "y", seed=0)
        with pytest.raises(TypeError):
            model.predict_value(labelled_table)

    def test_regressor_guard_on_classifier_methods(self):
        table = Table(
            [
                Column.from_codes("a", np.array([0, 1, 2, 3] * 10), (0, 1, 2, 3)),
                Column.from_codes("s", np.array([0, 1, 2, 3] * 10), (0.0, 0.3, 0.6, 1.0)),
            ]
        )
        model = fit_table_model("random_forest_regressor", table, ["a"], "s", seed=0)
        with pytest.raises(TypeError):
            model.predict_codes(table)
        with pytest.raises(TypeError):
            model.predict_proba(table)

    def test_unknown_kind(self, labelled_table):
        with pytest.raises(ValueError):
            fit_table_model("svm", labelled_table, ["a"], "y")

    def test_all_kinds_fit(self, labelled_table):
        for kind, (_ctor, is_clf, _enc) in MODEL_KINDS.items():
            if not is_clf:
                continue
            model = fit_table_model(
                kind, labelled_table, ["a", "b"], "y", seed=0,
                **({"epochs": 5} if kind == "neural_network" else {}),
            )
            assert model.accuracy(labelled_table, "y") > 0.7

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ValueError):
            TableModel(RandomForestClassifier(), ["a"], encoding="weird")

    def test_outcome_domain_recorded(self, labelled_table):
        model = fit_table_model("random_forest", labelled_table, ["a", "b"], "y", seed=0)
        assert model.outcome_domain_ == ("no", "yes")


class TestLogitHelpers:
    def test_logit_clipping(self):
        assert logit(0.5) == pytest.approx(0.0)
        assert logit(1.0) < 20
        assert logit(0.0) > -20

    def test_logit_monotone(self):
        assert logit(0.9) > logit(0.6) > logit(0.3)


class TestLogitModel:
    def test_coefficient_of_reference_category_is_zero(self, labelled_table):
        positive = labelled_table.codes("y") == 1
        model = fitted(LogitModel(["a", "b"]), labelled_table, positive)
        assert model.coefficient_vector("a")[0] == 0.0

    def test_coefficients_increase_with_helpful_values(self, labelled_table):
        positive = labelled_table.codes("y") == 1
        model = fitted(LogitModel(["a", "b"]), labelled_table, positive)
        coef = model.coefficient_vector("a")
        assert coef[2] > coef[1] > 0

    def test_log_odds_monotone(self, labelled_table):
        positive = labelled_table.codes("y") == 1
        model = fitted(LogitModel(["a", "b"]), labelled_table, positive)
        z = model.score_codes_batch(np.array([[c, 1] for c in (0, 1, 2)]))
        assert z[0] < z[1] < z[2]

    def test_length_mismatch(self, labelled_table):
        positive = labelled_table.codes("y") == 1
        cells, totals, positives = ScoreEstimator(
            labelled_table.select(["a"]), positive
        ).outcome_cells(["a"])
        with pytest.raises(ValueError):
            LogitModel(["a"]).fit(cells, totals[:-1], positives)

    def test_single_class_raises(self, labelled_table):
        with pytest.raises(ValueError):
            fitted(LogitModel(["a"]), labelled_table, np.ones(len(labelled_table), bool))

    def test_row_log_odds_do_not_depend_on_batch_size(self, wide_table):
        """A row scores the same bits alone as inside a batch.

        Regression: a one-hot matrix product takes a different BLAS path
        for one row than for many, so single rows drifted by ulps.
        """
        table, positive = wide_table
        model = fitted(LogitModel(table.names), table, positive)
        rows = table.codes_matrix()[:200]
        batch = model.score_codes_batch(rows)
        for i in range(len(rows)):
            assert model.score_codes_batch(rows[i : i + 1])[0] == batch[i]

    def test_gathered_log_odds_match_the_one_hot_product(self, wide_table):
        table, positive = wide_table
        model = fitted(LogitModel(table.names), table, positive)
        dense = (
            model._encoder.transform(table) @ model._model.coef_[0]
            + model._model.intercept_[0]
        )
        gathered = model.score_codes_batch(
            np.column_stack([table.codes(name) for name in table.names])
        )
        np.testing.assert_allclose(gathered, dense, rtol=0, atol=1e-12)


class TestOutcomeProbabilityModel:
    def test_probability_tracks_frequency(self, labelled_table):
        positive = labelled_table.codes("y") == 1
        model = fitted(OutcomeProbabilityModel(["a", "b"]), labelled_table, positive)
        # Compare against empirical rates on well-supported cells.
        for a in (0, 2):
            for b in (0, 1):
                mask = (labelled_table.codes("a") == a) & (
                    labelled_table.codes("b") == b
                )
                empirical = positive[mask].mean()
                assert probability(model, a, b) == pytest.approx(empirical, abs=0.1)

    def test_generalises_to_unseen_combo(self):
        # Only 3 of 4 combinations observed; model still answers the 4th.
        a = np.array([0, 0, 1] * 50)
        b = np.array([0, 1, 0] * 50)
        y = (a + b) >= 1
        table = Table(
            [Column.from_codes("a", a, (0, 1)), Column.from_codes("b", b, (0, 1))]
        )
        model = fitted(OutcomeProbabilityModel(["a", "b"]), table, y)
        assert probability(model, 1, 1) > 0.5

    def test_probabilities_are_the_sigmoid_of_the_shared_logit(
        self, wide_table, monkeypatch
    ):
        """One fit body: the probabilities are the sigmoid of the log-odds
        ``LogitModel`` fits at the same penalty, bit for bit, and the fit
        does not go through ``LogitModel.fit``."""
        table, positive = wide_table
        logit_model = fitted(LogitModel(table.names, l2=1e-3), table, positive)

        def refuse(*args, **kwargs):
            raise AssertionError("OutcomeProbabilityModel.fit called LogitModel.fit")

        monkeypatch.setattr(LogitModel, "fit", refuse)
        model = fitted(OutcomeProbabilityModel(table.names), table, positive)
        rows = table.codes_matrix()
        z = logit_model.score_codes_batch(rows)
        assert np.array_equal(
            model.probability_codes_batch(rows), 1.0 / (1.0 + np.exp(-z))
        )

    def test_degenerate_all_positive(self, labelled_table):
        model = fitted(
            OutcomeProbabilityModel(["a"]),
            labelled_table,
            np.ones(len(labelled_table), bool),
        )
        assert probability(model, 0) == 1.0

