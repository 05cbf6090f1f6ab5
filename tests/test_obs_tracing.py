"""Tracing: span nesting, rings, lane spans, solver spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lewis import Lewis
from repro.core.recourse import RecourseSolver
from repro.core.scores import ScoreEstimator
from repro.data.table import Table
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.service.session import ExplainerSession


@pytest.fixture(autouse=True)
def clean_tracer():
    tracing.get_tracer().clear()
    yield
    tracing.get_tracer().clear()


# ---------------------------------------------------------------------------
# core span mechanics


class TestSpans:
    def test_trace_yields_id_and_finishes_into_ring(self):
        with tracing.trace("t") as tid:
            assert tid is not None
        record = tracing.get_tracer().get(tid)
        assert record is not None
        assert record["status"] == "ok"
        assert record["n_spans"] == 1  # the root span

    def test_child_spans_parent_to_the_root(self):
        with tracing.trace("root") as tid:
            with tracing.span("child"):
                with tracing.span("grandchild"):
                    pass
        record = tracing.get_tracer().get(tid)
        by_name = {s["name"]: s for s in record["spans"]}
        root = by_name["root"]
        assert root["parent_id"] is None
        assert by_name["child"]["parent_id"] == root["span_id"]
        assert by_name["grandchild"]["parent_id"] == by_name["child"]["span_id"]

    def test_span_outside_trace_is_noop(self):
        before = tracing.get_tracer().stats()
        with tracing.span("orphan"):
            pass
        after = tracing.get_tracer().stats()
        assert after["started"] == before["started"]
        assert after["active"] == 0 and after["retained"] == 0

    def test_exception_marks_trace_status(self):
        with pytest.raises(RuntimeError):
            with tracing.trace("boom") as tid:
                raise RuntimeError("nope")
        assert tracing.get_tracer().get(tid)["status"] == "error:RuntimeError"

    def test_disabled_tracing_yields_none(self):
        from repro.obs import metrics as obs

        obs.set_enabled(False)
        try:
            with tracing.trace("off") as tid:
                assert tid is None
        finally:
            obs.set_enabled(True)

    def test_ring_is_bounded_and_slow_ring_survives_fast_traffic(self):
        tracer = Tracer(capacity=4, slow_capacity=2, slow_ms=50.0)
        with tracing.trace("slow-one", tracer=tracer) as slow_id:
            pass
        # forge slowness: replay the finish with a long duration
        tracer.clear()
        tracer.begin(slow_id, "slow-one")
        tracer.finish(slow_id, duration_ms=120.0)
        for i in range(10):
            tid = tracing.new_id()
            tracer.begin(tid, f"fast-{i}")
            tracer.finish(tid, duration_ms=1.0)
        stats = tracer.stats()
        assert stats["retained"] == 4
        assert tracer.get(slow_id) is not None  # held by the slow ring
        assert tracer.query(slow_only=True)[0]["trace_id"] == slow_id

    def test_record_span_without_context_is_noop(self):
        # the orphan counter is cumulative across the process (clear()
        # drops rings, not counters), so assert on the delta
        before = tracing.get_tracer().stats()["orphan_spans"]
        tracing.record_span(None, "nothing", 1.0)
        assert tracing.get_tracer().stats()["orphan_spans"] == before


# ---------------------------------------------------------------------------
# the session lane's spans, in the caller's own trace


def _tiny_session() -> ExplainerSession:
    rng = np.random.default_rng(3)
    n = 120
    table = Table.from_dict(
        {
            "a": rng.integers(0, 3, n).tolist(),
            "b": rng.integers(0, 3, n).tolist(),
        },
        domains={"a": [0, 1, 2], "b": [0, 1, 2]},
    )

    def model(features):
        return (features.codes("a") + features.codes("b")) >= 2

    lewis = Lewis(model, data=table, feature_names=["a", "b"], infer_orderings=False)
    return ExplainerSession(lewis)


class TestBatcherPropagation:
    def test_queue_wait_and_compute_spans_reach_the_trace(self):
        session = _tiny_session()
        try:
            with tracing.trace("request") as tid:
                session.explain_global()
        finally:
            session.close()
        record = tracing.get_tracer().get(tid)
        names = [s["name"] for s in record["spans"]]
        assert "queue_wait" in names
        assert "compute" in names
        compute = next(s for s in record["spans"] if s["name"] == "compute")
        assert compute["tags"]["kind"] == "explain_global"


# ---------------------------------------------------------------------------
# the recourse solve span


def _recourse_solver():
    rng = np.random.default_rng(4)
    n = 400
    table = Table.from_codes(
        {
            "skill": rng.integers(0, 4, n),
            "hours": rng.integers(0, 4, n),
            "degree": rng.integers(0, 3, n),
        },
        domains={"skill": [0, 1, 2, 3], "hours": [0, 1, 2, 3], "degree": [0, 1, 2]},
    )
    z = table.codes("skill") + table.codes("hours") + 2 * table.codes("degree")
    estimator = ScoreEstimator(table, z >= 5)
    solver = RecourseSolver(estimator, ["skill", "hours", "degree"])
    negatives = np.nonzero(~estimator._positive)[0]
    return solver, estimator._features.take(negatives[:80])


class TestRecourseSolveSpan:
    def test_solve_batch_records_one_recourse_solve_span(self):
        solver, rows = _recourse_solver()
        with tracing.trace("audit") as tid:
            solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        record = tracing.get_tracer().get(tid)
        spans = [s for s in record["spans"] if s["name"] == "recourse_solve"]
        assert len(spans) == 1
        assert spans[0]["duration_ms"] >= 0.0
        solves = solver.solution_memo_stats()["signature_solves"]
        assert spans[0]["tags"]["signatures"] == solves > 1
        # A batch served entirely from the memo solves nothing.
        with tracing.trace("audit-again") as tid:
            solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        record = tracing.get_tracer().get(tid)
        assert not any(s["name"] == "recourse_solve" for s in record["spans"])

    def test_untraced_solve_batch_returns_plain_results(self):
        solver, rows = _recourse_solver()
        # orphan counter is cumulative across the process; assert delta
        before = tracing.get_tracer().stats()["orphan_spans"]
        out = solver.solve_batch(rows, alpha=0.6, on_infeasible="none")
        assert len(out) == len(rows)
        assert tracing.get_tracer().stats()["orphan_spans"] == before
