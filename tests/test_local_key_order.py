"""A local answer's bytes depend on its request alone.

The result cache keys an ``individual`` by its sorted items, so every
spelling of one individual shares a cache entry.  The answer must then
not depend on the caller's key order either: ``Lewis.explain_local``
echoes the individual in the table's column order.  So the same
individual in any key order gets the same ``result`` bytes from a fresh
session and from a cache hit, and those are the bytes of the ``index``
answer for a row that holds it.
"""

from __future__ import annotations

import random

import pytest

from repro.service import ExplainerSession, LocalExplainRequest


def answer(lewis, *requests) -> list[dict]:
    """``handle(..., encoded=True)`` of each request, in turn, on one
    fresh session."""
    with ExplainerSession(lewis) as session:
        return [session.handle(r, encoded=True) for r in requests]


@pytest.mark.parametrize("index", [3, 11, 42])
def test_key_order_does_not_change_the_bytes(german_lewis, index):
    row = german_lewis.data.row(index)  # the table's column order
    names = list(row)
    random.Random(index).shuffle(names)
    assert names != list(row)
    shuffled = {name: row[name] for name in names}

    (by_index,) = answer(german_lewis, LocalExplainRequest(index=index))
    (in_order,) = answer(german_lewis, LocalExplainRequest(individual=row))
    (out_of_order,) = answer(german_lewis, LocalExplainRequest(individual=shuffled))
    computed, hit = answer(
        german_lewis,
        LocalExplainRequest(individual=shuffled),
        LocalExplainRequest(individual=row),
    )
    assert not computed["cached"] and hit["cached"]
    assert (
        in_order["result"]
        == out_of_order["result"]
        == computed["result"]
        == hit["result"]
        == by_index["result"]
    )
