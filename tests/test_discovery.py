"""Unit tests for the PC causal-discovery algorithm."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.causal.discovery import (
    PCAlgorithm,
    PartiallyDirectedGraph,
    g_square_test,
    structural_hamming_distance,
)
from repro.causal.graph import CausalDiagram
from repro.data import load_dataset
from repro.data.table import Column, Table
from repro.utils.exceptions import GraphError


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Six oriented edges out of "a": held in a set, whose order follows the
# process's string hash seed.
HUB_DIAGRAM = """
from repro.causal.discovery import PartiallyDirectedGraph

graph = PartiallyDirectedGraph("abcdefg")
for child in "gfedcb":
    graph.orient("a", child)
graph.add_undirected("c", "g")
diagram = graph.to_diagram()
print(diagram.edges, diagram.topological_order())
"""


def _table(**cols):
    return Table(
        [Column.from_values(name, list(codes)) for name, codes in cols.items()]
    )


class TestGSquareTest:
    def test_independent_variables_high_p(self):
        rng = np.random.default_rng(0)
        t = _table(a=rng.integers(0, 3, 5_000), b=rng.integers(0, 3, 5_000))
        assert g_square_test(t, "a", "b") > 0.01

    def test_dependent_variables_low_p(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, 5_000)
        b = (a + (rng.random(5_000) < 0.2)) % 3
        t = _table(a=a, b=b)
        assert g_square_test(t, "a", "b") < 1e-6

    def test_conditional_independence_detected(self):
        """a <- c -> b: a ⊥ b | c but a ̸⊥ b."""
        rng = np.random.default_rng(2)
        c = rng.integers(0, 2, 8_000)
        a = (c + (rng.random(8_000) < 0.2)) % 2
        b = (c + (rng.random(8_000) < 0.2)) % 2
        t = _table(a=a, b=b, c=c)
        assert g_square_test(t, "a", "b") < 1e-6
        assert g_square_test(t, "a", "b", ["c"]) > 0.01

    def test_no_informative_stratum_returns_one(self):
        t = _table(a=[0, 0, 0], b=[1, 1, 1])
        assert g_square_test(t, "a", "b") == 1.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 2_000)
        b = (a + (rng.random(2_000) < 0.3)) % 2
        t = _table(a=a, b=b)
        assert g_square_test(t, "a", "b") == pytest.approx(
            g_square_test(t, "b", "a")
        )


class TestPartiallyDirectedGraph:
    def test_edge_lifecycle(self):
        g = PartiallyDirectedGraph(["a", "b", "c"])
        g.add_undirected("a", "b")
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        g.orient("a", "b")
        assert g.is_directed("a", "b")
        assert not g.is_directed("b", "a")
        g.remove("a", "b")
        assert not g.has_edge("a", "b")

    def test_neighbours(self):
        g = PartiallyDirectedGraph(["a", "b", "c"])
        g.add_undirected("a", "b")
        g.orient("c", "a")
        assert g.neighbours("a") == {"b", "c"}

    def test_to_diagram_orients_by_order(self):
        g = PartiallyDirectedGraph(["a", "b"])
        g.add_undirected("a", "b")
        assert g.to_diagram(["a", "b"]).edges == [("a", "b")]
        assert g.to_diagram(["b", "a"]).edges == [("b", "a")]

    def test_to_diagram_order_is_independent_of_the_hash_seed(self):
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        printed = set()
        for seed in ("1", "2", "5"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", HUB_DIAGRAM],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            printed.add(out.stdout.strip())
        edges = [("a", c) for c in "bcdefg"] + [("c", "g")]
        assert printed == {f"{edges} {list('abcdefg')}"}

    def test_to_diagram_missing_order_node(self):
        g = PartiallyDirectedGraph(["a", "b"])
        with pytest.raises(GraphError):
            g.to_diagram(["a"])


class TestPCAlgorithm:
    def test_recovers_chain_skeleton(self):
        """a -> b -> c: skeleton a-b, b-c; a-c removed given b.

        A finite-sample CI test rejects a true independence with
        probability alpha, so recovery is checked over several seeds and
        required for the majority.
        """
        recovered = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 2, 10_000)
            b = (a + (rng.random(10_000) < 0.15)) % 2
            c = (b + (rng.random(10_000) < 0.15)) % 2
            t = _table(a=a, b=b, c=c)
            cpdag = PCAlgorithm(alpha=0.001, max_condition_size=1).fit(t)
            recovered += (
                cpdag.has_edge("a", "b")
                and cpdag.has_edge("b", "c")
                and not cpdag.has_edge("a", "c")
            )
        assert recovered >= 4

    def test_orients_collider(self):
        """a -> c <- b is the only orientation PC can identify alone.

        The collider mechanism is OR-like (not XOR, whose pairwise
        independence is invisible to constraint-based discovery).
        """
        oriented = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 2, 12_000)
            b = rng.integers(0, 2, 12_000)
            noise = rng.random(12_000)
            c = ((a + b) >= 1).astype(int)
            c = np.where(noise < 0.1, 1 - c, c)
            t = _table(a=a, b=b, c=c)
            cpdag = PCAlgorithm(alpha=0.001, max_condition_size=1).fit(t)
            oriented += cpdag.is_directed("a", "c") and cpdag.is_directed("b", "c")
        assert oriented >= 4

    def test_recovers_german_syn_graph_exactly(self):
        bundle = load_dataset("german_syn", n_rows=15_000, seed=0)
        features = bundle.table.select(bundle.feature_names)
        learned = PCAlgorithm(alpha=0.01, max_condition_size=2).fit_diagram(
            features, order=bundle.feature_names
        )
        assert structural_hamming_distance(learned, bundle.graph) == 0

    def test_learned_graph_usable_by_lewis(self):
        from repro import Lewis, fit_table_model, train_test_split

        bundle = load_dataset("german_syn", n_rows=10_000, seed=0)
        features = bundle.table.select(bundle.feature_names)
        learned = PCAlgorithm(alpha=0.01, max_condition_size=2).fit_diagram(
            features, order=bundle.feature_names
        )
        train, test = train_test_split(bundle.table, seed=0)
        model = fit_table_model(
            "random_forest_regressor", train, bundle.feature_names, bundle.label,
            seed=0, n_estimators=10,
        )
        lew = Lewis(model, data=test, graph=learned, threshold=0.5)
        exp = lew.explain_global()
        assert all(0 <= s.necessity_sufficiency <= 1 for s in exp.attribute_scores)


class TestStructuralHammingDistance:
    def test_identical_graphs_zero(self):
        g = CausalDiagram([("a", "b")])
        assert structural_hamming_distance(g, g) == 0

    def test_missing_edge_costs_one(self):
        a = CausalDiagram([("a", "b")], nodes=["a", "b", "c"])
        b = CausalDiagram([("a", "b"), ("b", "c")])
        assert structural_hamming_distance(a, b) == 1

    def test_wrong_orientation_costs_one(self):
        a = CausalDiagram([("a", "b")])
        b = CausalDiagram([("b", "a")])
        assert structural_hamming_distance(a, b) == 1
