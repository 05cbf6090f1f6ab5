"""From-scratch ML substrate: the black boxes of Section 5.2.

The paper evaluates LEWIS against four algorithm families — random forest
classification and regression, gradient-boosted trees ("XGBoost"), and a
feed-forward neural network.  None of those libraries is available
offline, so this subpackage reimplements them in numpy:

* :mod:`repro.models.tree` — CART decision trees (gini / entropy / mse),
* :mod:`repro.models.forest` — bagged forests with impurity importances,
* :mod:`repro.models.boosting` — second-order gradient boosting with
  logistic / squared loss (the XGBoost stand-in),
* :mod:`repro.models.neural` — MLP with ReLU and Adam,
* :mod:`repro.models.linear` — logistic / ridge regression (recourse logit
  model and the LinearIP baseline).

All models consume plain float matrices; see :mod:`repro.data.encoding`
for Table-to-matrix encoders and :mod:`repro.models.pipeline` for the
Table-level wrapper LEWIS feeds with.
"""

from repro.models.base import BaseClassifier, BaseRegressor
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.models.neural import NeuralNetworkClassifier
from repro.models.linear import LinearRegression, LogisticRegression
from repro.models.pipeline import TableModel, fit_table_model


def __getattr__(name: str):
    # serialize imports pipeline/encoding which import this package;
    # resolve lazily to keep the import graph acyclic.
    if name in ("save_model", "load_model", "model_to_dict", "model_from_dict"):
        from repro.models import serialize

        return getattr(serialize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BaseClassifier",
    "BaseRegressor",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "NeuralNetworkClassifier",
    "LinearRegression",
    "LogisticRegression",
    "TableModel",
    "fit_table_model",
]
