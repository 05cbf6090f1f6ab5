"""Shared fixtures: small datasets and trained models, cached per session.

Model training is the slow part of the suite, so every fixture that fits
a model is session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Lewis, fit_table_model, load_dataset, train_test_split
from repro.causal.equations import linear_threshold, logistic_binary, root_categorical
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.data.table import Table


@pytest.fixture(scope="session")
def german_bundle():
    """Small German replica (600 rows) for fast end-to-end tests."""
    return load_dataset("german", n_rows=600, seed=0)


@pytest.fixture(scope="session")
def german_model(german_bundle):
    """Random forest trained on the German replica's training split."""
    train, _test = train_test_split(german_bundle.table, seed=0)
    return fit_table_model(
        "random_forest",
        train,
        german_bundle.feature_names,
        german_bundle.label,
        seed=0,
        n_estimators=15,
        max_depth=8,
    )


@pytest.fixture(scope="session")
def german_lewis(german_bundle, german_model):
    """A Lewis explainer over the German test split."""
    _train, test = train_test_split(german_bundle.table, seed=0)
    return Lewis(
        german_model,
        data=test,
        graph=german_bundle.graph,
        positive_outcome=german_bundle.positive_label,
    )


@pytest.fixture(scope="session")
def adult_lewis_bundle():
    """A Lewis explainer over a 2,000-row adult replica, and its bundle."""
    bundle = load_dataset("adult", n_rows=2_000, seed=0)
    train, test = train_test_split(bundle.table, seed=0)
    model = fit_table_model(
        "random_forest",
        train,
        bundle.feature_names,
        bundle.label,
        seed=0,
        n_estimators=15,
        max_depth=8,
    )
    lewis = Lewis(
        model, data=test, graph=bundle.graph, positive_outcome=bundle.positive_label
    )
    return lewis, bundle


@pytest.fixture(scope="session")
def toy_scm():
    """Tiny 3-node chain SCM: Z -> X -> Y with known mechanisms.

    Z is binary, X ternary increasing in Z, Y binary increasing in X and Z
    (Z is a confounder of nothing here but parent of both X and Y when
    used with edges Z->X, Z->Y, X->Y).
    """
    eqs = [
        StructuralEquation("Z", (), (0, 1), root_categorical([0.5, 0.5])),
        StructuralEquation(
            "X",
            ("Z",),
            (0, 1, 2),
            linear_threshold({"Z": 1.0}, cuts=[0.4, 1.2], noise_scale=0.8),
        ),
        StructuralEquation(
            "Y",
            ("X", "Z"),
            (0, 1),
            logistic_binary({"X": 1.4, "Z": 0.8}, bias=-1.8),
        ),
    ]
    return StructuralCausalModel(eqs)


@pytest.fixture(scope="session")
def toy_table(toy_scm):
    """A 4000-row sample from the toy SCM."""
    return toy_scm.sample(4_000, seed=42)


@pytest.fixture()
def small_table():
    """A deterministic 8-row table used by unit tests."""
    return Table.from_dict(
        {
            "color": ["red", "blue", "red", "green", "blue", "red", "green", "blue"],
            "size": [0, 1, 2, 1, 0, 2, 2, 1],
            "label": ["no", "yes", "yes", "no", "no", "yes", "yes", "no"],
        },
        domains={
            "color": ["red", "green", "blue"],
            "size": [0, 1, 2],
            "label": ["no", "yes"],
        },
        unordered=["color"],
    )


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(123)


def make_linear_data(n: int, d: int, seed: int = 0, noise: float = 0.3):
    """Linearly separable-ish classification data for model tests."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    logits = X @ w + noise * rng.normal(size=n)
    y = (logits > 0).astype(int)
    return X, y, w


@pytest.fixture()
def linear_data():
    """(X, y, w) for a 500x6 near-separable binary problem."""
    return make_linear_data(500, 6, seed=1)
