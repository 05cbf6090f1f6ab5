"""Causal substrate: diagrams, structural causal models, identification.

This package implements the probabilistic-causal-model machinery of
Section 2 of the paper: causal diagrams with d-separation and the
backdoor criterion, structural causal models with interventions and
Pearl's three-step counterfactual procedure, and backdoor adjustment
sets that identify interventional queries ``Pr(o | do(x), k)`` from
data (the engine's ``adjusted_probabilities`` evaluates the sum).
"""

from repro.causal.graph import CausalDiagram
from repro.causal.scm import StructuralCausalModel, StructuralEquation
from repro.causal.identification import BackdoorAdjustment
from repro.causal.ground_truth import GroundTruthScores
from repro.causal.discovery import (
    PCAlgorithm,
    PartiallyDirectedGraph,
    g_square_test,
    structural_hamming_distance,
)

__all__ = [
    "CausalDiagram",
    "StructuralCausalModel",
    "StructuralEquation",
    "BackdoorAdjustment",
    "GroundTruthScores",
    "PCAlgorithm",
    "PartiallyDirectedGraph",
    "g_square_test",
    "structural_hamming_distance",
]
