"""Reusable structural-equation building blocks.

Every helper returns an ``EquationFunc`` — ``f(parent_codes, u) -> codes``
— suitable for :class:`~repro.causal.scm.StructuralEquation`. The uniform
exogenous draw ``u`` is converted to whatever noise shape the mechanism
needs (inverse-CDF sampling), which keeps the whole SCM a deterministic
function of ``u`` and hence counterfactual-ready.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.causal.scm import EquationFunc


def root_categorical(probabilities: Sequence[float]) -> EquationFunc:
    """A root node drawn from a fixed categorical distribution."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probabilities must be a non-empty vector")
    if not np.isclose(probs.sum(), 1.0):
        raise ValueError(f"probabilities must sum to 1, got {probs.sum()}")
    cumulative = np.cumsum(probs)

    def sample(parents: Mapping[str, np.ndarray], u: np.ndarray) -> np.ndarray:
        return np.searchsorted(cumulative, u, side="right").clip(0, probs.size - 1)

    return sample


def linear_threshold(
    weights: Mapping[str, float],
    cuts: Sequence[float],
    bias: float = 0.0,
    noise_scale: float = 1.0,
) -> EquationFunc:
    """Latent-score mechanism: linear in parent codes + Gaussian noise.

    The latent score ``bias + sum_i w_i * code_i + noise`` is discretised
    by ``cuts`` into ``len(cuts) + 1`` ordinal categories. This is the
    workhorse mechanism for the synthetic dataset replicas: positive
    weights give the qualitative monotone dependencies the paper's causal
    analysis relies on.
    """
    cuts = np.asarray(cuts, dtype=float)

    def sample(parents: Mapping[str, np.ndarray], u: np.ndarray) -> np.ndarray:
        latent = np.full(u.shape, bias, dtype=float)
        for parent, weight in weights.items():
            latent += weight * parents[parent].astype(float)
        if noise_scale:
            # Imported at the call site: only dataset generation pays for it.
            from scipy.special import ndtri

            latent += noise_scale * ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        return np.searchsorted(cuts, latent, side="right")

    return sample


def logistic_binary(
    weights: Mapping[str, float],
    bias: float = 0.0,
) -> EquationFunc:
    """Binary node: 1 with probability sigmoid(bias + w·codes)."""

    def sample(parents: Mapping[str, np.ndarray], u: np.ndarray) -> np.ndarray:
        logit = np.full(u.shape, bias, dtype=float)
        for parent, weight in weights.items():
            logit += weight * parents[parent].astype(float)
        prob = 1.0 / (1.0 + np.exp(-logit))
        return (u < prob).astype(np.int64)

    return sample


def deterministic(
    parent_order: Sequence[str],
    func,
) -> EquationFunc:
    """A noise-free node computed from parent codes via ``func(matrix)``.

    ``func`` receives an ``(n, n_parents)`` int matrix and must return an
    ``(n,)`` code vector.
    """

    def sample(parents: Mapping[str, np.ndarray], u: np.ndarray) -> np.ndarray:
        matrix = (
            np.column_stack([parents[p] for p in parent_order])
            if parent_order
            else np.zeros((u.shape[0], 0), dtype=np.int64)
        )
        return np.asarray(func(matrix), dtype=np.int64)

    return sample


def mixture(
    primary: EquationFunc,
    alternative: EquationFunc,
    alternative_weight: float,
) -> EquationFunc:
    """Blend two mechanisms: with prob ``alternative_weight`` use the second.

    Used by the monotonicity-robustness experiment (Section 5.5) to inject
    a controlled amount of non-monotone behaviour: the exogenous draw is
    split to decide which mechanism fires, keeping everything a
    deterministic function of ``u``.
    """
    if not 0.0 <= alternative_weight <= 1.0:
        raise ValueError("alternative_weight must be in [0, 1]")

    def sample(parents: Mapping[str, np.ndarray], u: np.ndarray) -> np.ndarray:
        # Split u into a selector and a fresh uniform (bit-slicing trick).
        selector = (u * 1021.0) % 1.0  # decorrelated second uniform
        inner = u
        use_alt = selector < alternative_weight
        out = primary(parents, inner)
        if use_alt.any():
            alt = alternative(parents, inner)
            out = np.where(use_alt, alt, out)
        return out

    return sample
