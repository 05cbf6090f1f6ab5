"""Causal structure discovery: the PC algorithm for discrete data.

Section 6 of the paper notes that when no background diagram is
available, one "can be learned from a mixture of historical and
interventional data" (citing Glymour, Zhang & Spirtes 2019).  This module
implements the constraint-based route on observational data:

1. **Skeleton discovery** — start from the complete undirected graph and
   remove the edge (X, Y) whenever X ⊥ Y | S for some conditioning set S
   drawn from the current neighbourhoods (G-square / chi-square test of
   conditional independence over contingency tables).
2. **V-structure orientation** — for every unshielded triple X - Z - Y,
   orient X -> Z <- Y when Z is not in the separating set of (X, Y).
3. **Meek rules** — propagate orientations that avoid new v-structures
   and cycles.

The output is a :class:`PartiallyDirectedGraph` (a CPDAG);
:meth:`PartiallyDirectedGraph.to_diagram` resolves the remaining
undirected edges with a user-supplied tie-breaker (default: a total
order over attribute names, e.g. temporal knowledge) and returns a
:class:`~repro.causal.graph.CausalDiagram` usable by LEWIS.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.causal.graph import CausalDiagram
from repro.data.table import Table, unique_rows
from repro.utils.exceptions import GraphError


def g_square_test(
    table: Table,
    x: str,
    y: str,
    given: Sequence[str] = (),
    min_expected: float = 1.0,
) -> float:
    """P-value of the G-square conditional-independence test X ⊥ Y | S.

    The statistic ``2 * sum n log(n / e)`` is chi-square distributed with
    ``(|X|-1)(|Y|-1) * prod |S_i|`` degrees of freedom under independence.
    Strata with too little support contribute neither statistic nor
    degrees of freedom (the standard correction for sparse tables).
    """
    x_codes = table.codes(x)
    y_codes = table.codes(y)
    x_card = table.column(x).cardinality
    y_card = table.column(y).cardinality

    if given:
        _uniques, _sizes, strata = unique_rows(
            [table.codes(g) for g in given],
            [table.column(g).cardinality for g in given],
            return_inverse=True,
        )
        n_strata = int(strata.max()) + 1
    else:
        strata = np.zeros(len(table), dtype=np.int64)
        n_strata = 1

    statistic = 0.0
    dof = 0
    for s in range(n_strata):
        members = strata == s
        n = int(members.sum())
        if n < 2:
            continue
        counts = np.zeros((x_card, y_card))
        np.add.at(counts, (x_codes[members], y_codes[members]), 1.0)
        row = counts.sum(axis=1, keepdims=True)
        col = counts.sum(axis=0, keepdims=True)
        expected = row @ col / n
        # Only cells whose margins have support carry information.
        active_rows = int((row[:, 0] > 0).sum())
        active_cols = int((col[0] > 0).sum())
        if active_rows < 2 or active_cols < 2:
            continue
        if expected[expected > 0].min() < min_expected:
            # Sparse stratum: skip rather than inflate the statistic.
            continue
        mask = counts > 0
        statistic += 2.0 * float(
            np.sum(counts[mask] * np.log(counts[mask] / expected[mask]))
        )
        dof += (active_rows - 1) * (active_cols - 1)
    if dof == 0:
        # No informative stratum: cannot reject independence.
        return 1.0
    # Imported at the call site: only processes that run discovery pay for it.
    from scipy.stats import chi2

    return float(chi2.sf(statistic, dof))


class PartiallyDirectedGraph:
    """A CPDAG: directed plus undirected edges over named nodes."""

    def __init__(self, nodes: Iterable[str]):
        self.nodes = list(nodes)
        self._directed: set[tuple[str, str]] = set()
        self._undirected: set[frozenset] = set()

    # -- edge bookkeeping ------------------------------------------------------

    def add_undirected(self, a: str, b: str) -> None:
        """Add an undirected edge a - b."""
        self._undirected.add(frozenset((a, b)))

    def orient(self, cause: str, effect: str) -> None:
        """Turn the (un)directed edge into ``cause -> effect``."""
        key = frozenset((cause, effect))
        self._undirected.discard(key)
        self._directed.discard((effect, cause))
        self._directed.add((cause, effect))

    def remove(self, a: str, b: str) -> None:
        """Delete any edge between a and b."""
        self._undirected.discard(frozenset((a, b)))
        self._directed.discard((a, b))
        self._directed.discard((b, a))

    def has_edge(self, a: str, b: str) -> bool:
        """True when any edge (either direction / undirected) links a, b."""
        return (
            frozenset((a, b)) in self._undirected
            or (a, b) in self._directed
            or (b, a) in self._directed
        )

    def is_directed(self, cause: str, effect: str) -> bool:
        """True when the edge ``cause -> effect`` is oriented."""
        return (cause, effect) in self._directed

    def neighbours(self, node: str) -> set[str]:
        """All nodes adjacent to ``node`` (any edge type)."""
        out = set()
        for a, b in self._directed:
            if a == node:
                out.add(b)
            elif b == node:
                out.add(a)
        for pair in self._undirected:
            if node in pair:
                out |= pair - {node}
        return out

    @property
    def undirected_edges(self) -> list[tuple[str, str]]:
        """Unoriented edges as sorted tuples."""
        return sorted(tuple(sorted(pair)) for pair in self._undirected)

    # -- resolution ------------------------------------------------------------

    def to_diagram(self, order: Sequence[str] | None = None) -> CausalDiagram:
        """Resolve undirected edges with a total order and build a DAG.

        ``order`` lists nodes from upstream to downstream (temporal or
        domain knowledge); each undirected edge is oriented from the
        earlier to the later node. Defaults to :attr:`nodes` order.
        """
        order = list(order) if order is not None else list(self.nodes)
        missing = set(self.nodes) - set(order)
        if missing:
            raise GraphError(f"order is missing nodes: {sorted(missing)}")
        position = {n: i for i, n in enumerate(order)}
        # Sorted, not set order: the diagram's edge and topological
        # orders must not depend on the process's string hash seed.
        edges = sorted(self._directed)
        for a, b in self.undirected_edges:
            edges.append((a, b) if position[a] < position[b] else (b, a))
        return CausalDiagram(edges, nodes=self.nodes)


class PCAlgorithm:
    """Constraint-based structure discovery over a discrete table."""

    def __init__(
        self,
        alpha: float = 0.01,
        max_condition_size: int = 3,
        min_expected: float = 1.0,
    ):
        self.alpha = float(alpha)
        self.max_condition_size = int(max_condition_size)
        self.min_expected = float(min_expected)

    def fit(self, table: Table, attributes: Sequence[str] | None = None) -> PartiallyDirectedGraph:
        """Run skeleton discovery + v-structures + Meek rules."""
        attributes = list(attributes) if attributes is not None else table.names
        graph, separators = self._skeleton(table, attributes)
        self._orient_v_structures(graph, separators)
        self._apply_meek_rules(graph)
        return graph

    def fit_diagram(
        self,
        table: Table,
        attributes: Sequence[str] | None = None,
        order: Sequence[str] | None = None,
    ) -> CausalDiagram:
        """Convenience: fit and resolve straight to a CausalDiagram."""
        graph = self.fit(table, attributes)
        return graph.to_diagram(order or (attributes or table.names))

    # -- phase 1: skeleton -------------------------------------------------------

    def _skeleton(self, table: Table, attributes: list[str]):
        graph = PartiallyDirectedGraph(attributes)
        for a, b in combinations(attributes, 2):
            graph.add_undirected(a, b)
        separators: dict[frozenset, tuple[str, ...]] = {}

        for size in range(self.max_condition_size + 1):
            removed_any = True
            while removed_any:
                removed_any = False
                for a, b in combinations(attributes, 2):
                    if not graph.has_edge(a, b):
                        continue
                    candidates = sorted((graph.neighbours(a) | graph.neighbours(b)) - {a, b})
                    if len(candidates) < size:
                        continue
                    for subset in combinations(candidates, size):
                        p_value = g_square_test(
                            table, a, b, list(subset), min_expected=self.min_expected
                        )
                        if p_value > self.alpha:
                            graph.remove(a, b)
                            separators[frozenset((a, b))] = subset
                            removed_any = True
                            break
        return graph, separators

    # -- phase 2: v-structures -----------------------------------------------------

    @staticmethod
    def _orient_v_structures(graph: PartiallyDirectedGraph, separators) -> None:
        for z in graph.nodes:
            adjacent = sorted(graph.neighbours(z))
            for x, y in combinations(adjacent, 2):
                if graph.has_edge(x, y):
                    continue  # shielded
                separator = separators.get(frozenset((x, y)), ())
                if z not in separator:
                    graph.orient(x, z)
                    graph.orient(y, z)

    # -- phase 3: Meek rules ---------------------------------------------------------

    @staticmethod
    def _apply_meek_rules(graph: PartiallyDirectedGraph) -> None:
        changed = True
        while changed:
            changed = False
            for a, b in list(graph.undirected_edges):
                # Rule 1: c -> a - b with c, b non-adjacent  =>  a -> b.
                for c in graph.nodes:
                    if graph.is_directed(c, a) and not graph.has_edge(c, b):
                        graph.orient(a, b)
                        changed = True
                        break
                    if graph.is_directed(c, b) and not graph.has_edge(c, a):
                        graph.orient(b, a)
                        changed = True
                        break
                if changed:
                    continue
                # Rule 2: a -> c -> b and a - b  =>  a -> b.
                for c in graph.nodes:
                    if graph.is_directed(a, c) and graph.is_directed(c, b):
                        graph.orient(a, b)
                        changed = True
                        break
                    if graph.is_directed(b, c) and graph.is_directed(c, a):
                        graph.orient(b, a)
                        changed = True
                        break


def structural_hamming_distance(learned: CausalDiagram, truth: CausalDiagram) -> int:
    """Count edge mismatches between two diagrams over the same nodes.

    Missing edge, extra edge, and wrongly-oriented edge each cost 1; a
    standard discovery-quality metric used by the ablation benchmark.
    """
    learned_pairs = {frozenset(e) for e in learned.edges}
    truth_pairs = {frozenset(e) for e in truth.edges}
    distance = len(learned_pairs ^ truth_pairs)
    for edge in set(learned.edges):
        if frozenset(edge) in truth_pairs and edge not in truth.edges:
            distance += 1
    return distance
