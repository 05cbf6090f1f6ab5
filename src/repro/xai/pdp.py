"""Partial dependence and ICE curves (Friedman 2001; Goldstein et al. 2015).

Two of the associational influence methods the paper's related work
surveys. Both probe the black box by *setting* an attribute to each of
its values — mechanically like LEWIS's ordering probe — but report raw
average predictions without any causal adjustment, so they inherit the
correlation-vs-causation caveats the paper raises (a useful contrast in
the comparison experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.table import Column, Table
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class PartialDependence:
    """Average positive rate per value of one attribute."""

    attribute: str
    values: tuple
    averages: tuple

    def as_dict(self) -> dict:
        """``{value: average prediction}``."""
        return dict(zip(self.values, self.averages))

    @property
    def range(self) -> float:
        """Max-minus-min average — a crude global importance measure."""
        return max(self.averages) - min(self.averages)


@dataclass(frozen=True)
class ICECurves:
    """Per-row prediction curves; ``matrix[i, j]`` = row i at value j."""

    attribute: str
    values: tuple
    matrix: np.ndarray

    @property
    def partial_dependence(self) -> PartialDependence:
        """The PDP is the mean ICE curve."""
        return PartialDependence(
            attribute=self.attribute,
            values=self.values,
            averages=tuple(float(v) for v in self.matrix.mean(axis=0)),
        )



def partial_dependence(
    predict_positive: Callable[[Table], np.ndarray],
    table: Table,
    attribute: str,
    max_rows: int = 2_000,
    seed: int | np.random.Generator | None = 0,
) -> PartialDependence:
    """PDP of ``attribute``: set every row to each value, average."""
    return ice_curves(
        predict_positive, table, attribute, max_rows=max_rows, seed=seed
    ).partial_dependence


def ice_curves(
    predict_positive: Callable[[Table], np.ndarray],
    table: Table,
    attribute: str,
    max_rows: int = 2_000,
    seed: int | np.random.Generator | None = 0,
) -> ICECurves:
    """Individual conditional expectation curves for ``attribute``."""
    col = table.column(attribute)
    if len(table) > max_rows:
        rng = as_generator(seed)
        table = table.take(rng.choice(len(table), max_rows, replace=False))
        col = table.column(attribute)
    matrix = np.empty((len(table), col.cardinality))
    for code in range(col.cardinality):
        probed = table.with_column(
            Column.from_codes(
                attribute,
                np.full(len(table), code, dtype=np.int64),
                col.categories,
                col.ordered,
            )
        )
        matrix[:, code] = np.asarray(predict_positive(probed), dtype=float)
    return ICECurves(attribute=attribute, values=col.categories, matrix=matrix)
