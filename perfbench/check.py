"""Answer check: sampled HTTP answers vs an in-process reference ``Lewis``.

The reference is built from the same seed and size as the served
tenant (``launcher.build_lewis``) and answers through the session's own
request objects and JSON views, so a served answer passes only when it
is bit-identical to what a fresh, never-served explainer returns (up to
the recourse allowance of :data:`ULP_FIELDS`).
"""

from __future__ import annotations

import json
import math
import sys

from launcher import TENANT, build_lewis


def canonical(route: str, result: dict) -> str:
    """Byte-exact JSON form of an answer (float repr round-trips).

    A recourse audit's ``solver`` block holds the solver's cumulative
    memo and search counters, which depend on every earlier request the
    process served; it describes the process, not the answer.
    """
    if route == "recourse/batch":
        result = {k: v for k, v in result.items() if k != "solver"}
    return json.dumps(result, sort_keys=True, default=str)


#: recourse fields that a served answer may carry a few ULPs away from
#: the reference: the value depends on the solver's warm-start history
#: (every other field, and every other route, must match bit for bit)
ULP_FIELDS = ("estimated_sufficiency", "estimated_probability")
ULP_REL_TOL = 1e-12


def _close_recourse(served, expected) -> bool:
    if served is None or expected is None:
        return served == expected
    return served.keys() == expected.keys() and all(
        math.isclose(served[k], expected[k], rel_tol=ULP_REL_TOL)
        if k in ULP_FIELDS else served[k] == expected[k]
        for k in served
    )


def same_answer(route: str, served: dict, expected: dict) -> tuple[bool, bool]:
    """(answers agree, answers are bit-identical)."""
    if canonical(route, served) == canonical(route, expected):
        return True, True
    if route != "recourse/batch":
        return False, False
    rest = ("recourses", "solver")
    agree = all(
        served[k] == expected[k] for k in served.keys() | expected.keys()
        if k not in rest
    ) and len(served["recourses"]) == len(expected["recourses"]) and all(
        _close_recourse(a, b)
        for a, b in zip(served["recourses"], expected["recourses"])
    )
    return agree, False


def _request(route: str, body: dict):
    from repro.service import session as s

    if route == "explain/global":
        return s.GlobalExplainRequest(
            attributes=tuple(body["attributes"]) if "attributes" in body else None,
            max_pairs_per_attribute=body.get("max_pairs_per_attribute", 8),
        )
    if route == "explain/context":
        return s.ContextExplainRequest(
            context=body["context"],
            attributes=tuple(body["attributes"]) if "attributes" in body else None,
            max_pairs_per_attribute=body.get("max_pairs_per_attribute", 8),
        )
    if route == "explain/local_batch":
        return s.LocalExplainBatchRequest(indices=tuple(body["indices"]))
    if route == "scores":
        return s.ScoresRequest(
            contrasts=tuple((dict(v), dict(b)) for v, b in body["contrasts"]),
            context=body.get("context", {}),
        )
    if route == "recourse/batch":
        return s.RecourseBatchRequest(
            indices=tuple(body["indices"]),
            alpha=float(body["alpha"]),
            mode=body["mode"],
        )
    raise ValueError(f"no reference mapping for route {route!r}")


def reference_mismatches(samples: list[tuple[str, dict, dict]]):
    """Check ``(route, body, served result)`` samples against the reference.

    Returns ``(mismatches, not bit-identical)``: the first counts answers
    that differ, the second also those within :data:`ULP_REL_TOL`.
    """
    from repro.service import ExplainerSession

    lewis, bundle = build_lewis()
    session = ExplainerSession(
        lewis, default_actionable=bundle.actionable, tenant=TENANT
    )
    try:
        mismatches = inexact = 0
        for route, body, served in samples:
            result = session.handle(_request(route, body))["result"]
            # the server encodes with json.dumps(default=str); mirror it
            expected = json.loads(json.dumps(result, default=str))
            agree, identical = same_answer(route, served, expected)
            mismatches += not agree
            inexact += not identical
            if not agree:
                print(f"check failed: {route} {json.dumps(body)[:200]} differs "
                      "from the reference", file=sys.stderr)
        return mismatches, inexact
    finally:
        session.close()
