"""Fitting from count cells: oracle parity, cell extraction, scatter-add.

The local outcome model and the recourse logit model are fitted from
the engine's non-empty (feature cell, outcome) counts instead of from
the rows.  The one-hot logistic likelihood depends on the data only
through those counts, so the fit must match the row fit kept in
``tests/oracles.py``: probabilities at every cell of the joint domain
within 1e-12, including quasi-separated outcomes, empty cells and
single-class outcomes.  ``ContingencyEngine.cells`` must count like a
brute-force tally, through the packed-key ``np.unique`` and through the
row-wise one it falls back to when the key would overflow; and
``apply_delta``'s scatter-add must count a cell hit twice in one delta
twice.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import logit_model_on_rows, outcome_model_on_rows
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.estimation.engine import ContingencyEngine
from repro.estimation.logit import LogitModel
from repro.estimation.outcome_model import OutcomeProbabilityModel

OUTCOMES = ("random", "separated", "all_positive", "all_negative")


@st.composite
def labelled_tables(draw):
    """A small table, its names in a drawn order, and a decision vector."""
    k = draw(st.integers(1, 3))
    cards = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    n = draw(st.integers(1, 40))
    codes = {
        f"x{j}": draw(st.lists(st.integers(0, card - 1), min_size=n, max_size=n))
        for j, card in enumerate(cards)
    }
    table = Table.from_codes(
        {name: np.array(c) for name, c in codes.items()},
        domains={f"x{j}": list(range(card)) for j, card in enumerate(cards)},
    )
    names = draw(st.permutations(table.names))
    kind = draw(st.sampled_from(OUTCOMES))
    if kind == "random":
        positive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif kind == "separated":
        # The decision is a threshold on one column: the cells of that
        # column are pure, the quasi-separated case.
        positive = table.codes(names[0]) >= draw(st.integers(1, cards[0] - 1))
    else:
        positive = np.full(n, kind == "all_positive")
    return table, list(names), positive


def joint_domain(table: Table, names: list[str]) -> np.ndarray:
    cards = [table.column(name).cardinality for name in names]
    return np.array(list(itertools.product(*map(range, cards))), dtype=np.int64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class TestCellFitMatchesRowOracle:
    @settings(max_examples=150, deadline=None)
    @given(labelled_tables())
    def test_outcome_model(self, case):
        table, names, positive = case
        cells = ScoreEstimator(table, positive).outcome_cells(names)
        model = OutcomeProbabilityModel(names).fit(*cells)
        oracle = outcome_model_on_rows(names, table, positive)
        grid = joint_domain(table, names)
        np.testing.assert_allclose(
            model.probability_codes_batch(grid),
            oracle.probability_codes_batch(grid),
            rtol=0,
            atol=1e-12,
        )

    @settings(max_examples=150, deadline=None)
    @given(labelled_tables())
    def test_logit_model(self, case):
        table, names, positive = case
        cells = ScoreEstimator(table, positive).outcome_cells(names)
        if positive.all() or not positive.any():
            with pytest.raises(ValueError):
                LogitModel(names).fit(*cells)
            with pytest.raises(ValueError):
                logit_model_on_rows(names, table, positive)
            return
        model = LogitModel(names).fit(*cells)
        oracle = logit_model_on_rows(names, table, positive)
        grid = joint_domain(table, names)
        np.testing.assert_allclose(
            sigmoid(model.score_codes_batch(grid)),
            sigmoid(oracle.score_codes_batch(grid)),
            rtol=0,
            atol=1e-12,
        )


def brute_force_cells(table: Table, names: list[str]):
    counts = Counter(map(tuple, table.codes_matrix(names).tolist()))
    cells = sorted(counts)
    return (
        np.array(cells, dtype=np.int64).reshape(len(cells), len(names)),
        np.array([counts[c] for c in cells], dtype=np.int64),
    )


class TestEngineCells:
    @settings(max_examples=80, deadline=None)
    @given(labelled_tables())
    def test_packed_key_cells_match_brute_force(self, case):
        table, names, _positive = case
        codes, counts = ContingencyEngine(table).cells(names)
        want_codes, want_counts = brute_force_cells(table, names)
        assert codes.dtype == np.int64 and counts.dtype == np.int64
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(counts, want_counts)

    def test_radix_overflow_falls_back_to_row_wise_unique(self):
        """17 columns of 16 codes: 2**68 cells overflow the packed key."""
        rng = np.random.default_rng(3)
        names = [f"c{j:02d}" for j in range(17)]
        table = Table.from_codes(
            {name: rng.integers(0, 16, 60) for name in names},
            domains={name: list(range(16)) for name in names},
        )
        order = list(rng.permutation(names))
        codes, counts = ContingencyEngine(table).cells(order)
        want_codes, want_counts = brute_force_cells(table, order)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(counts, want_counts)

    def test_cells_follow_deltas(self):
        table = Table.from_codes(
            {"a": np.array([0, 1, 1, 2]), "b": np.array([1, 0, 0, 1])},
            domains={"a": [0, 1, 2], "b": [0, 1]},
        )
        engine = ContingencyEngine(table)
        engine.cells(["b", "a"])
        engine.apply_delta(table.encode_rows([{"a": 2, "b": 0}]), deleted_rows=[0])
        codes, counts = engine.cells(["b", "a"])
        want_codes, want_counts = brute_force_cells(engine.table, ["b", "a"])
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(counts, want_counts)


class TestScatterAdd:
    SIGNATURES = [("a",), ("b",), ("a", "b"), ("a", "b", "c")]

    @staticmethod
    def table() -> Table:
        rng = np.random.default_rng(5)
        return Table.from_codes(
            {
                "a": rng.integers(0, 3, 30),
                "b": rng.integers(0, 4, 30),
                "c": rng.integers(0, 2, 30),
            },
            domains={"a": [0, 1, 2], "b": [0, 1, 2, 3], "c": [0, 1]},
        )

    def test_repeated_cell_delta_matches_rebuild(self):
        """One delta inserts a cell twice and deletes a row of that cell.

        A buffered fancy-index add would count the repeated cell once;
        ``np.add.at`` counts it twice.
        """
        table = self.table()
        engine = ContingencyEngine(table)
        for signature in self.SIGNATURES:
            engine.tensor(signature)
        row = table.row_codes(7)
        engine.apply_delta(
            inserted_rows=table.take(np.array([7, 7])), deleted_rows=[7]
        )
        fresh = ContingencyEngine(engine.table)
        for signature in self.SIGNATURES:
            assert np.array_equal(engine.tensor(signature), fresh.tensor(signature))
        cell = tuple(row[name] for name in ("a", "b", "c"))
        before = ContingencyEngine(table).tensor(("a", "b", "c"))[cell]
        assert engine.tensor(("a", "b", "c"))[cell] == before + 1
