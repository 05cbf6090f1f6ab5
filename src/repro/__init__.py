"""LEWIS — explaining black-box algorithms with probabilistic contrastive
counterfactuals.

Reproduction of Galhotra, Pradhan & Salimi (SIGMOD 2021,
arXiv:2103.11972). The package provides:

* :class:`repro.Lewis` — the explainer facade (global / contextual /
  local explanations and counterfactual recourse),
* :mod:`repro.causal` — causal diagrams, structural causal models,
  backdoor identification, ground-truth counterfactual scores,
* :mod:`repro.models` — the from-scratch ML substrate (random forests,
  gradient boosting, neural networks, linear models),
* :mod:`repro.xai` — LIME / Kernel SHAP / permutation importance /
  LinearIP baselines,
* :mod:`repro.data` — the tabular container and the five benchmark
  dataset generators.

Quickstart::

    from repro import Lewis, load_dataset, fit_table_model, train_test_split

    bundle = load_dataset("german", n_rows=1000, seed=0)
    train, test = train_test_split(bundle.table, seed=0)
    model = fit_table_model(
        "random_forest", train, bundle.feature_names, bundle.label
    )
    lew = Lewis(model, data=test, graph=bundle.graph,
                positive_outcome=bundle.positive_label)
    print(lew.explain_global().ranking("sufficiency"))
"""

from repro.causal import (
    CausalDiagram,
    GroundTruthScores,
    PCAlgorithm,
    StructuralCausalModel,
    StructuralEquation,
)
from repro.core import (
    BoundsEstimator,
    FairnessAuditor,
    GlobalExplanation,
    Lewis,
    LocalExplanation,
    Recourse,
    RecourseSolver,
    ScoreEstimator,
    ScoreTriple,
)
from repro.data import (
    Column,
    DatasetBundle,
    Table,
    available_datasets,
    load_dataset,
    train_test_split,
)
from repro.estimation import ContingencyEngine
from repro.models import TableModel, fit_table_model
from repro.service import ExplainerSession, ResultCache, TableDelta

__version__ = "1.1.0"

__all__ = [
    "CausalDiagram",
    "GroundTruthScores",
    "PCAlgorithm",
    "StructuralCausalModel",
    "StructuralEquation",
    "BoundsEstimator",
    "FairnessAuditor",
    "GlobalExplanation",
    "Lewis",
    "LocalExplanation",
    "Recourse",
    "RecourseSolver",
    "ScoreEstimator",
    "ScoreTriple",
    "Column",
    "ContingencyEngine",
    "DatasetBundle",
    "ExplainerSession",
    "ResultCache",
    "TableDelta",
    "Table",
    "available_datasets",
    "load_dataset",
    "train_test_split",
    "TableModel",
    "fit_table_model",
    "__version__",
]
