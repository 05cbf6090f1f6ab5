"""Binary integer program container.

A named-variable convenience layer over the matrix form
``min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x in {0,1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np


@dataclass
class IPSolution:
    """Solver output: assignment, objective, and search statistics."""

    values: dict[Hashable, int]
    objective: float
    n_nodes: int

    def chosen(self) -> list[Hashable]:
        """Names of variables set to 1."""
        return [name for name, v in self.values.items() if v == 1]


class IntegerProgram:
    """A minimisation 0-1 IP with named variables and row-wise constraints."""

    def __init__(self):
        self._names: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._costs: list[float] = []
        self._ub_rows: list[tuple[dict[Hashable, float], float]] = []
        self._eq_rows: list[tuple[dict[Hashable, float], float]] = []

    # -- construction ---------------------------------------------------------

    def add_variable(self, name: Hashable, cost: float = 0.0) -> None:
        """Declare a binary variable with objective coefficient ``cost``."""
        if name in self._index:
            raise ValueError(f"variable {name!r} already declared")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._costs.append(float(cost))

    def add_le_constraint(self, coefficients: Mapping[Hashable, float], rhs: float) -> None:
        """Add ``sum coeff_i * x_i <= rhs``."""
        self._check_known(coefficients)
        self._ub_rows.append((dict(coefficients), float(rhs)))

    def add_ge_constraint(self, coefficients: Mapping[Hashable, float], rhs: float) -> None:
        """Add ``sum coeff_i * x_i >= rhs`` (stored as negated <=)."""
        self.add_le_constraint(
            {k: -v for k, v in coefficients.items()}, -float(rhs)
        )

    def add_eq_constraint(self, coefficients: Mapping[Hashable, float], rhs: float) -> None:
        """Add ``sum coeff_i * x_i == rhs``."""
        self._check_known(coefficients)
        self._eq_rows.append((dict(coefficients), float(rhs)))

    def _check_known(self, coefficients: Mapping[Hashable, float]) -> None:
        unknown = [k for k in coefficients if k not in self._index]
        if unknown:
            raise KeyError(f"unknown variables in constraint: {unknown}")

    # -- matrix form ------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        """Number of declared binaries."""
        return len(self._names)

    @property
    def n_constraints(self) -> int:
        """Total number of constraint rows."""
        return len(self._ub_rows) + len(self._eq_rows)

    @property
    def variable_names(self) -> list[Hashable]:
        """Declared variable names in order."""
        return list(self._names)

    def matrices(self):
        """Return ``(c, A_ub, b_ub, A_eq, b_eq)`` in scipy conventions."""
        n = self.n_variables
        c = np.asarray(self._costs, dtype=float)

        def stack(rows):
            if not rows:
                return None, None
            A = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for i, (coeffs, rhs) in enumerate(rows):
                for name, value in coeffs.items():
                    A[i, self._index[name]] = value
                b[i] = rhs
            return A, b

        A_ub, b_ub = stack(self._ub_rows)
        A_eq, b_eq = stack(self._eq_rows)
        return c, A_ub, b_ub, A_eq, b_eq

    def assignment_from_vector(self, x: np.ndarray) -> dict[Hashable, int]:
        """Translate a solver vector into ``{name: 0/1}``."""
        return {name: int(round(v)) for name, v in zip(self._names, x)}
