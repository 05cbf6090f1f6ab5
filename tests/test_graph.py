"""Unit tests for causal diagrams: structure, d-separation, backdoor."""

import pytest

from repro.causal.graph import CausalDiagram
from repro.utils.exceptions import GraphError


@pytest.fixture()
def chain():
    """A -> B -> C"""
    return CausalDiagram([("A", "B"), ("B", "C")])


@pytest.fixture()
def confounded():
    """Classic confounding: Z -> X, Z -> Y, X -> Y."""
    return CausalDiagram([("Z", "X"), ("Z", "Y"), ("X", "Y")])


@pytest.fixture()
def collider():
    """X -> C <- Y (C is a collider)."""
    return CausalDiagram([("X", "C"), ("Y", "C")])


@pytest.fixture()
def loan():
    """The paper's Figure 2: G -> {R, O}, A -> {R, D, O}, R -> O, D -> O."""
    return CausalDiagram(
        [
            ("G", "R"),
            ("G", "O"),
            ("A", "R"),
            ("A", "D"),
            ("A", "O"),
            ("R", "O"),
            ("D", "O"),
        ]
    )


class TestStructure:
    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            CausalDiagram([("A", "B"), ("B", "A")])

    def test_cycle_is_named(self):
        with pytest.raises(GraphError, match="A -> B -> C -> A"):
            CausalDiagram([("Q", "A"), ("A", "B"), ("B", "C"), ("C", "A")])
        with pytest.raises(GraphError, match="A -> A"):
            CausalDiagram([("A", "A")])

    def test_isolated_nodes_kept(self):
        g = CausalDiagram([("A", "B")], nodes=["A", "B", "C"])
        assert set(g.nodes) == {"A", "B", "C"}

    def test_parents_children(self, confounded):
        assert confounded.parents("Y") == ["X", "Z"]
        assert confounded.children("Z") == ["X", "Y"]

    def test_ancestors_descendants(self, chain):
        assert chain.ancestors("C") == {"A", "B"}
        assert chain.descendants("A") == {"B", "C"}

    def test_non_descendants(self, chain):
        assert chain.non_descendants("B") == {"A"}
        assert chain.non_descendants("C") == {"A", "B"}

    def test_non_descendants_of_set(self, loan):
        assert loan.non_descendants_of(["R", "D"]) == {"G", "A"}

    def test_descendants_of_excludes_the_set(self, chain):
        assert chain.descendants_of(["A", "B"]) == {"C"}

    def test_unknown_node_raises(self, chain):
        with pytest.raises(GraphError, match="unknown"):
            chain.parents("Q")

    def test_topological_order_respects_edges(self, loan):
        order = loan.topological_order()
        for cause, effect in loan.edges:
            assert order.index(cause) < order.index(effect)

    def test_contains(self, chain):
        assert "A" in chain
        assert "Q" not in chain


class TestDSeparation:
    def test_chain_blocked_by_middle(self, chain):
        assert chain.d_separated(["A"], ["C"], ["B"])
        assert not chain.d_separated(["A"], ["C"])

    def test_collider_opens_when_conditioned(self, collider):
        assert collider.d_separated(["X"], ["Y"])
        assert not collider.d_separated(["X"], ["Y"], ["C"])

    def test_overlapping_sets_raise_graph_error(self, chain):
        with pytest.raises(GraphError, match="disjoint"):
            chain.d_separated(["A"], ["C"], ["A"])
        with pytest.raises(GraphError, match="disjoint"):
            chain.d_separated(["A", "B"], ["B", "C"])

    def test_confounder_blocked_by_z(self, confounded):
        # Remove the direct edge effect: X and Y stay dependent through
        # the direct edge, so check Z vs a pure backdoor pair instead.
        g = CausalDiagram([("Z", "X"), ("Z", "Y")])
        assert not g.d_separated(["X"], ["Y"])
        assert g.d_separated(["X"], ["Y"], ["Z"])


class TestBackdoor:
    def test_confounder_set_satisfies(self, confounded):
        assert confounded.satisfies_backdoor("X", "Y", ["Z"])

    def test_empty_set_fails_under_confounding(self, confounded):
        assert not confounded.satisfies_backdoor("X", "Y", [])

    def test_descendant_of_treatment_rejected(self, chain):
        # B is a descendant of A.
        assert not chain.satisfies_backdoor("A", "C", ["B"])

    def test_empty_set_ok_without_confounding(self, chain):
        assert chain.satisfies_backdoor("A", "C", [])

    def test_backdoor_set_finds_confounder(self, confounded):
        assert confounded.backdoor_set("X", "Y") == ["Z"]

    def test_backdoor_set_empty_when_unconfounded(self, chain):
        assert chain.backdoor_set("A", "C") == []

    def test_backdoor_set_respects_forbidden(self, confounded):
        assert confounded.backdoor_set("X", "Y", forbidden=["Z"]) is None

    def test_backdoor_set_paper_figure2(self, loan):
        # {G, A} satisfies the criterion for D -> O (the paper's example).
        found = loan.backdoor_set("D", "O")
        assert found is not None
        assert set(found) <= {"G", "A"}
        assert loan.satisfies_backdoor("D", "O", ["A"])

    def test_set_treatment_backdoor(self, loan):
        found = loan.backdoor_set(["R", "D"], "O")
        assert found is not None
        assert loan.satisfies_backdoor(["R", "D"], "O", found)


class TestDerivedGraphs:
    def test_with_outcome_adds_edges(self, chain):
        g = chain.with_outcome("O", inputs=["B", "C"])
        assert ("B", "O") in g.edges
        assert ("C", "O") in g.edges
        assert set(chain.edges) <= set(g.edges)

    def test_subgraph_restricts(self, loan):
        sub = loan.subgraph(["G", "A", "R"])
        assert set(sub.nodes) == {"G", "A", "R"}
        assert ("G", "R") in sub.edges
        assert all(n in {"G", "A", "R"} for e in sub.edges for n in e)

    def test_subgraph_unknown_node(self, loan):
        with pytest.raises(GraphError):
            loan.subgraph(["G", "Q"])
