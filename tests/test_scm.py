"""Unit tests for structural causal models and equation helpers."""

import numpy as np
import pytest

from repro.causal.equations import (
    deterministic,
    linear_threshold,
    logistic_binary,
    mixture,
    root_categorical,
)
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.utils.exceptions import GraphError


class TestEquationHelpers:
    def test_root_categorical_matches_probabilities(self):
        f = root_categorical([0.2, 0.5, 0.3])
        u = np.random.default_rng(0).random(50_000)
        codes = f({}, u)
        freqs = np.bincount(codes, minlength=3) / len(codes)
        assert np.allclose(freqs, [0.2, 0.5, 0.3], atol=0.01)

    def test_root_categorical_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            root_categorical([0.5, 0.6])
        with pytest.raises(ValueError):
            root_categorical([])

    def test_root_categorical_deterministic_in_u(self):
        f = root_categorical([0.5, 0.5])
        u = np.array([0.1, 0.9])
        assert np.array_equal(f({}, u), f({}, u))

    def test_linear_threshold_monotone_in_parent(self):
        f = linear_threshold({"p": 1.0}, cuts=[0.5, 1.5], noise_scale=0.0)
        u = np.full(3, 0.5)
        parents = {"p": np.array([0, 1, 2])}
        codes = f(parents, u)
        assert (np.diff(codes) >= 0).all()

    def test_linear_threshold_noise_free_is_deterministic(self):
        f = linear_threshold({"p": 1.0}, cuts=[0.5], noise_scale=0.0)
        out = f({"p": np.array([0, 1])}, np.array([0.01, 0.99]))
        assert out.tolist() == [0, 1]

    def test_logistic_binary_probability(self):
        f = logistic_binary({}, bias=0.0)  # p = 0.5 everywhere
        u = np.random.default_rng(1).random(20_000)
        assert abs(f({}, u).mean() - 0.5) < 0.01

    def test_logistic_binary_monotone_in_weighted_parent(self):
        f = logistic_binary({"p": 2.0}, bias=-2.0)
        u = np.full(2, 0.4)
        out = f({"p": np.array([0, 3])}, u)
        assert out[1] >= out[0]

    def test_deterministic_node(self):
        f = deterministic(["a", "b"], lambda m: (m[:, 0] + m[:, 1]) % 2)
        out = f({"a": np.array([1, 0]), "b": np.array([1, 1])}, np.zeros(2))
        assert out.tolist() == [0, 1]

    def test_mixture_weight_zero_is_primary(self):
        prim = deterministic([], lambda m: np.zeros(len(m), dtype=int))
        alt = deterministic([], lambda m: np.ones(len(m), dtype=int))
        f = mixture(prim, alt, 0.0)
        assert f({}, np.random.default_rng(0).random(100)).sum() == 0

    def test_mixture_weight_one_is_alternative(self):
        prim = deterministic([], lambda m: np.zeros(len(m), dtype=int))
        alt = deterministic([], lambda m: np.ones(len(m), dtype=int))
        f = mixture(prim, alt, 1.0)
        assert f({}, np.random.default_rng(0).random(100)).sum() == 100

    def test_mixture_invalid_weight(self):
        prim = deterministic([], lambda m: np.zeros(len(m), dtype=int))
        with pytest.raises(ValueError):
            mixture(prim, prim, 1.5)


class TestSCM:
    def test_missing_parent_equation_rejected(self):
        eq = StructuralEquation("X", ("Q",), (0, 1), logistic_binary({"Q": 1.0}))
        with pytest.raises(GraphError, match="parents without equations"):
            StructuralCausalModel([eq])

    def test_duplicate_node_rejected(self):
        eq = StructuralEquation("X", (), (0, 1), root_categorical([0.5, 0.5]))
        with pytest.raises(GraphError, match="duplicate"):
            StructuralCausalModel([eq, eq])

    def test_sample_shapes_and_domains(self, toy_scm):
        table = toy_scm.sample(100, seed=0)
        assert len(table) == 100
        assert table.names == ["Z", "X", "Y"]
        assert table.domain("X") == (0, 1, 2)

    def test_sampling_deterministic_in_seed(self, toy_scm):
        a = toy_scm.sample(50, seed=3)
        b = toy_scm.sample(50, seed=3)
        assert a.codes("Y").tolist() == b.codes("Y").tolist()

    def test_intervention_clamps_node(self, toy_scm):
        table = toy_scm.sample(200, seed=0, interventions={"X": 2})
        assert (table.codes("X") == 2).all()

    def test_intervention_out_of_domain_rejected(self, toy_scm):
        with pytest.raises(ValueError):
            toy_scm.sample(10, seed=0, interventions={"X": 99})

    def test_intervention_does_not_change_non_descendants(self, toy_scm):
        exo = toy_scm.draw_exogenous(500, seed=1)
        factual = toy_scm.evaluate(exo)
        counterfactual = toy_scm.evaluate(exo, {"X": 0})
        assert np.array_equal(factual["Z"], counterfactual["Z"])

    def test_consistency_rule(self, toy_scm):
        """Eq. (2): if X(u) = x then intervening X <- x changes nothing."""
        exo = toy_scm.draw_exogenous(2_000, seed=2)
        factual = toy_scm.evaluate(exo)
        for code in (0, 1, 2):
            counterfactual = toy_scm.evaluate(exo, {"X": code})
            same_x = factual["X"] == code
            assert np.array_equal(factual["Y"][same_x], counterfactual["Y"][same_x])

    def test_counterfactual_reuses_exogenous(self, toy_scm):
        exo = toy_scm.draw_exogenous(100, seed=5)
        a = toy_scm.counterfactual(exo, {"X": 1})
        b = toy_scm.counterfactual(exo, {"X": 1})
        assert np.array_equal(a["Y"], b["Y"])

    def test_diagram_matches_equations(self, toy_scm):
        diagram = toy_scm.diagram
        assert ("Z", "X") in diagram.edges
        assert ("X", "Y") in diagram.edges
        assert ("Z", "Y") in diagram.edges

    def test_interventional_shift_is_causal(self, toy_scm):
        """P(Y=1 | do(X=2)) should exceed P(Y=1 | do(X=0))."""
        high = toy_scm.sample(5_000, seed=7, interventions={"X": 2})
        low = toy_scm.sample(5_000, seed=7, interventions={"X": 0})
        assert high.codes("Y").mean() > low.codes("Y").mean() + 0.1

    def test_equation_shape_mismatch_caught(self):
        bad = StructuralEquation(
            "X", (), (0, 1), lambda parents, u: np.zeros(len(u) + 1, dtype=int)
        )
        scm = StructuralCausalModel([bad])
        with pytest.raises(ValueError, match="shape"):
            scm.sample(5, seed=0)

    def test_equation_domain_violation_caught(self):
        bad = StructuralEquation(
            "X", (), (0, 1), lambda parents, u: np.full(len(u), 7, dtype=int)
        )
        scm = StructuralCausalModel([bad])
        with pytest.raises(ValueError, match="domain"):
            scm.sample(5, seed=0)
