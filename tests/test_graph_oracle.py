"""The dict-based CausalDiagram against the networkx oracle, orders included.

Random DAGs of up to 10 nodes, with isolated nodes, listed nodes in
random order and edges inserted in shuffled order. Every public method
and property must agree with :class:`oracles.NxCausalDiagram`, and
``nodes``, ``edges`` and ``topological_order()`` must agree as lists: a
structural causal model draws its noise in topological order and
snapshots store the edges in order, so those orders fix bytes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NxCausalDiagram
from repro.causal.graph import CausalDiagram
from repro.utils.exceptions import GraphError

NAMES = "abcdefghij"


@st.composite
def dags(draw):
    """``(edges, listed_nodes)`` of a random DAG over up to 10 nodes."""
    size = draw(st.integers(1, len(NAMES)))
    # The causal order is a random permutation, so it is not the
    # alphabetical order ``parents()`` and ``children()`` sort by.
    names = draw(st.permutations(NAMES))[:size]
    pairs = [(names[i], names[j]) for i in range(size) for j in range(i + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    touched = {node for edge in edges for node in edge}
    extra = draw(st.lists(st.sampled_from(names), unique=True))
    isolated = [n for n in names if n not in touched]
    listed = draw(st.permutations(sorted(set(extra) | set(isolated))))
    return edges, listed


def subsets(rng: random.Random, pool, min_size: int = 0) -> list:
    """A random subset of ``pool`` in random order."""
    pool = list(pool)
    return rng.sample(pool, rng.randint(min(min_size, len(pool)), len(pool)))


def outcome(call):
    """The call's result, or ``GraphError`` when it raises one."""
    try:
        return call()
    except GraphError:
        return GraphError


def assert_same_orders(ours: CausalDiagram, oracle: NxCausalDiagram) -> None:
    assert ours.nodes == oracle.nodes
    assert ours.edges == oracle.edges
    assert ours.topological_order() == oracle.topological_order()


@settings(max_examples=150, deadline=None)
@given(spec=dags(), seed=st.integers(0, 2**32 - 1))
def test_every_query_matches_the_oracle(spec, seed):
    edges, listed = spec
    rng = random.Random(seed)
    ours = CausalDiagram(edges, nodes=listed)
    oracle = NxCausalDiagram(edges, nodes=listed)
    assert_same_orders(ours, oracle)
    nodes = oracle.nodes

    for node in nodes:
        assert node in ours
        assert ours.parents(node) == oracle.parents(node)
        assert ours.children(node) == oracle.children(node)
        assert ours.ancestors(node) == oracle.ancestors(node)
        assert ours.descendants(node) == oracle.descendants(node)
        assert ours.non_descendants(node) == oracle.non_descendants(node)
    assert "z" not in ours and ["a"] not in ours
    assert outcome(lambda: ours.parents("z")) is GraphError

    for _ in range(3):
        group = subsets(rng, nodes)
        assert ours.descendants_of(group) == oracle.descendants_of(group)
        assert ours.non_descendants_of(group) == oracle.non_descendants_of(group)

    for _ in range(20):
        # The oracle raises networkx's own error on overlapping sets, so
        # only disjoint triples are compared here.
        xs = subsets(rng, nodes)
        ys = subsets(rng, [n for n in nodes if n not in xs])
        zs = subsets(rng, [n for n in nodes if n not in xs and n not in ys])
        assert ours.d_separated(xs, ys, zs) == oracle.d_separated(xs, ys, zs)

    for _ in range(10):
        treatment = subsets(rng, nodes, min_size=1)
        effect = subsets(rng, nodes, min_size=1)
        adjustment = subsets(rng, nodes)
        forbidden = subsets(rng, nodes)
        assert ours.satisfies_backdoor(
            treatment, effect, adjustment
        ) == oracle.satisfies_backdoor(treatment, effect, adjustment)
        assert ours.backdoor_set(treatment, effect, forbidden) == oracle.backdoor_set(
            treatment, effect, forbidden
        )
        single, other = rng.choice(nodes), rng.choice(nodes)
        assert ours.backdoor_set(single, other) == oracle.backdoor_set(single, other)

    # An existing node as the outcome may close a cycle: both must refuse.
    target = rng.choice(nodes + ["outcome"])
    inputs = subsets(rng, nodes)
    ours_ext = outcome(lambda: ours.with_outcome(target, inputs))
    oracle_ext = outcome(lambda: oracle.with_outcome(target, inputs))
    assert (ours_ext is GraphError) == (oracle_ext is GraphError)
    if ours_ext is not GraphError:
        assert_same_orders(ours_ext, oracle_ext)

    kept = subsets(rng, nodes)
    sub, oracle_sub = ours.subgraph(kept), oracle.subgraph(kept)
    assert sub.nodes == oracle_sub.nodes
    # networkx's induced view walks a set when the subset is small, so
    # the oracle's edge order there depends on the hash seed.
    assert sorted(sub.edges) == sorted(oracle_sub.edges)
    assert outcome(lambda: ours.subgraph(kept + ["z"])) is GraphError


@settings(max_examples=150, deadline=None)
@given(
    spec=dags(),
    extra=st.tuples(st.sampled_from(NAMES + "z"), st.sampled_from(NAMES + "z")),
    position=st.floats(0, 1),
)
def test_an_extra_edge_is_refused_exactly_when_it_closes_a_cycle(spec, extra, position):
    edges, listed = spec
    at = round(position * len(edges))
    shuffled = edges[:at] + [extra] + edges[at:]
    ours = outcome(lambda: CausalDiagram(shuffled, nodes=listed))
    oracle = outcome(lambda: NxCausalDiagram(shuffled, nodes=listed))
    assert (ours is GraphError) == (oracle is GraphError)
    if ours is not GraphError:
        assert_same_orders(ours, oracle)
