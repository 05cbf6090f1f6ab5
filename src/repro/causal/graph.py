"""Causal diagrams: DAG structure, d-separation, backdoor criterion.

A :class:`CausalDiagram` is an immutable DAG over named attributes, held
as insertion-ordered adjacency dicts (``succ``/``pred``: node ->
``{neighbour: None}``). Diagrams have about a dozen nodes, so plain dicts
answer every query LEWIS needs (Sections 2 and 4.1 of the paper) and
serving processes load no graph library:

* parents / ancestors / descendants / non-descendants,
* d-separation, by Bayes-ball reachability,
* the backdoor criterion and a minimal-ish backdoor set search.

The orders are a contract: a structural causal model draws its noise in
topological order, which fixes every generated dataset's bytes, and
snapshots persist ``edges`` in order. ``nodes`` is insertion order
(listed nodes, then edge endpoints, cause before effect); ``edges`` goes
by node, then by effect insertion order; ``topological_order()`` is Kahn
generations, the zero-in-degree nodes first in node order. The
graph-library oracle in ``tests/oracles.py`` holds all three.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from repro.utils.exceptions import GraphError


class CausalDiagram:
    """An immutable DAG over named attributes."""

    def __init__(self, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()):
        succ: dict[str, dict[str, None]] = {}
        pred: dict[str, dict[str, None]] = {}
        for node in nodes:
            succ.setdefault(node, {})
            pred.setdefault(node, {})
        for cause, effect in edges:
            for node in (cause, effect):
                succ.setdefault(node, {})
                pred.setdefault(node, {})
            succ[cause][effect] = None
            pred[effect][cause] = None
        self._succ = succ
        self._pred = pred
        self._order = self._kahn_order()

    def _kahn_order(self) -> list[str]:
        """Topological order by Kahn generations; raises on a cycle."""
        indegree = {node: len(parents) for node, parents in self._pred.items() if parents}
        order = [node for node, parents in self._pred.items() if not parents]
        # Appending while iterating emits the nodes generation by generation.
        for node in order:
            for child in self._succ[node]:
                indegree[child] -= 1
                if not indegree[child]:
                    del indegree[child]
                    order.append(child)
        if indegree:
            # Every node left has a parent left: walk parents to a repeat.
            path: list[str] = []
            node = next(iter(indegree))
            while node not in path:
                path.append(node)
                node = next(p for p in self._pred[node] if p in indegree)
            loop = path[path.index(node):]  # each node's parent follows it
            cycle = [node, *loop[:0:-1], node]
            raise GraphError(
                "causal diagram contains a cycle: " + " -> ".join(map(str, cycle))
            )
        return order

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All attribute names in the diagram."""
        return list(self._succ)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All directed edges ``(cause, effect)``."""
        return [(u, v) for u, children in self._succ.items() for v in children]

    def __contains__(self, node: str) -> bool:
        try:
            return node in self._succ
        except TypeError:  # unhashable: not a node name
            return False

    def _require(self, *nodes: str) -> None:
        missing = [n for n in nodes if n not in self]
        if missing:
            raise GraphError(f"unknown nodes {missing}; known: {self.nodes}")

    def parents(self, node: str) -> list[str]:
        """Direct causes of ``node``."""
        self._require(node)
        return sorted(self._pred[node])

    def children(self, node: str) -> list[str]:
        """Direct effects of ``node``."""
        self._require(node)
        return sorted(self._succ[node])

    def ancestors(self, node: str) -> set[str]:
        """All (possibly indirect) causes of ``node``."""
        self._require(node)
        return _closure(self._pred, [node])

    def descendants(self, node: str) -> set[str]:
        """All variables caused (directly or indirectly) by ``node``."""
        self._require(node)
        return _closure(self._succ, [node])

    def descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Union of descendants over a set of nodes (the nodes excluded)."""
        nodes = list(nodes)
        self._require(*nodes)
        return _closure(self._succ, nodes) - set(nodes)

    def non_descendants(self, node: str) -> set[str]:
        """Variables not caused by ``node`` (``node`` itself excluded)."""
        return set(self._succ) - self.descendants(node) - {node}

    def non_descendants_of(self, nodes: Iterable[str]) -> set[str]:
        """Variables not caused by any node in ``nodes``."""
        nodes = list(nodes)
        return set(self._succ) - set(nodes) - self.descendants_of(nodes)

    def topological_order(self) -> list[str]:
        """A topological ordering of all nodes."""
        return list(self._order)

    # -- separation --------------------------------------------------------

    def d_separated(
        self, xs: Iterable[str], ys: Iterable[str], given: Iterable[str] = ()
    ) -> bool:
        """Return True iff ``xs`` and ``ys`` are d-separated by ``given``.

        The three sets must be disjoint; :class:`GraphError` otherwise.
        """
        xs, ys, given = set(xs), set(ys), set(given)
        self._require(*xs, *ys, *given)
        shared = (xs & ys) | (xs & given) | (ys & given)
        if shared:
            raise GraphError(
                f"d-separation needs disjoint node sets; shared: {sorted(shared)}"
            )
        return not self._active_reach(xs, given) & ys

    def _active_reach(
        self, sources: Iterable[str], given: set[str], cut: Collection[str] = ()
    ) -> set[str]:
        """Bayes ball: every node an active trail joins to ``sources``.

        Nodes in ``cut`` lose their out-edges, so the backdoor check reads
        the graph with the treatment's out-edges removed without copying
        it. A collider passes the ball iff it is in ``given`` or is an
        ancestor of a node there.
        """

        def parents(node: str) -> list[str]:
            return [p for p in self._pred[node] if p not in cut]

        def children(node: str) -> Iterable[str]:
            return () if node in cut else self._succ[node]

        opens = set(given) | _closure(self._pred, given, skip=cut)
        reached: set[str] = set()
        seen: set[tuple[str, bool]] = set()
        # A ball is (node, arrived from a child); a source passes it both ways.
        balls = [(node, True) for node in sources]
        while balls:
            ball = balls.pop()
            if ball in seen:
                continue
            seen.add(ball)
            node, from_child = ball
            blocked = node in given
            if not blocked:
                reached.add(node)
                balls.extend((child, False) for child in children(node))
            if (from_child and not blocked) or (not from_child and node in opens):
                balls.extend((parent, True) for parent in parents(node))
        return reached

    def satisfies_backdoor(
        self,
        treatment: Sequence[str] | str,
        outcome: Sequence[str] | str,
        adjustment: Iterable[str],
    ) -> bool:
        """Check the backdoor criterion of ``adjustment`` w.r.t. (X, Y).

        ``adjustment`` satisfies the criterion iff (i) it contains no
        descendant of any treatment node, and (ii) it blocks every backdoor
        path — i.e. X and Y are d-separated by ``adjustment`` in the graph
        with all edges *out of* X removed.
        """
        xs = [treatment] if isinstance(treatment, str) else list(treatment)
        ys = [outcome] if isinstance(outcome, str) else list(outcome)
        zs = set(adjustment)
        self._require(*xs, *ys, *zs)
        if zs & self.descendants_of(xs):
            return False
        if zs & set(xs) or zs & set(ys):
            return False
        ys_eff = set(ys) - set(xs)
        if not ys_eff:
            return True
        return not self._active_reach(set(xs), zs, cut=set(xs)) & ys_eff

    def backdoor_set(
        self,
        treatment: Sequence[str] | str,
        outcome: Sequence[str] | str,
        forbidden: Iterable[str] = (),
    ) -> list[str] | None:
        """Find a backdoor adjustment set, preferring small ones.

        The parents of the treatment always satisfy the criterion in a
        Markovian diagram, so the search starts from subsets of the
        treatment's ancestors and falls back to the full parent set.
        Returns ``None`` when no admissible set avoiding ``forbidden``
        exists.
        """
        xs = [treatment] if isinstance(treatment, str) else list(treatment)
        ys = [outcome] if isinstance(outcome, str) else list(outcome)
        forbidden = set(forbidden) | set(xs) | set(ys)

        if self.satisfies_backdoor(xs, ys, ()):
            return []

        candidates = set()
        for x in xs:
            candidates |= self.ancestors(x)
        candidates -= forbidden
        candidates = sorted(candidates)

        # Greedy: grow from parents (which block all backdoor paths when
        # observable), then prune elements one at a time.
        parent_set = sorted(
            set().union(*(self.parents(x) for x in xs)) - forbidden
        )
        if not self.satisfies_backdoor(xs, ys, parent_set):
            # Parents unavailable (forbidden) — try the full candidate pool.
            if not self.satisfies_backdoor(xs, ys, candidates):
                return None
            parent_set = list(candidates)
        pruned = list(parent_set)
        for node in sorted(parent_set):
            trial = [n for n in pruned if n != node]
            if self.satisfies_backdoor(xs, ys, trial):
                pruned = trial
        return pruned

    # -- derived graphs ------------------------------------------------------

    def with_outcome(self, outcome: str, inputs: Iterable[str]) -> "CausalDiagram":
        """Return a diagram extended with the black box's output node.

        The decision algorithm deterministically maps its inputs to the
        outcome, so the extended diagram simply adds ``input -> outcome``
        edges. Existing nodes/edges are preserved.
        """
        edges = list(self.edges) + [(i, outcome) for i in inputs]
        return CausalDiagram(edges, nodes=self.nodes + [outcome])

    def subgraph(self, nodes: Iterable[str]) -> "CausalDiagram":
        """Return the induced subdiagram over ``nodes``."""
        nodes = list(nodes)
        self._require(*nodes)
        keep = set(nodes)
        edges = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return CausalDiagram(edges, nodes=nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CausalDiagram({len(self.nodes)} nodes, {len(self.edges)} edges)"


def _closure(
    adjacency: dict[str, dict[str, None]],
    sources: Iterable[str],
    skip: Collection[str] = (),
) -> set[str]:
    """Nodes one or more ``adjacency`` steps from ``sources``, never entering ``skip``."""
    seen: set[str] = set()
    stack = list(sources)
    while stack:
        for node in adjacency[stack.pop()]:
            if node not in seen and node not in skip:
                seen.add(node)
                stack.append(node)
    return seen
