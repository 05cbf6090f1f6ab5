"""In-memory span recorder wrapped around each layer's public entry points.

Used only by the traced server (``launcher.py serve --trace FILE``): it
wraps the functions in :data:`TARGETS` before the server starts, records
``(id, parent, name, start, end, request id, size)`` for every call while
recording is on, and writes the spans out when asked.  The program's own
code is untouched; the span names are the layers' module-qualified
function names, so the per-layer report reads in the repository's terms.

Parents are tracked per thread.  Work the micro-batcher runs on its
dispatch thread opens a new root there; it is tied to its request by the
request id, which the batcher carries across the thread hop.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: (module, attribute path, size function name or None) for each wrapped
#: entry point.  Module-level functions are also rebound in the modules
#: that imported them by name (see ``ALIASES``).
TARGETS = [
    ("repro.service.server", "ExplainerRequestHandler.do_POST", None),
    ("repro.service.session", "ExplainerSession.handle", None),
    ("repro.service.cache", "ResultCache.get", None),
    ("repro.service.cache", "ResultCache.put", None),
    ("repro.service.cache", "ResultCache.purge_stale", "result"),
    ("repro.service.scheduler", "MicroBatcher.run", None),
    ("repro.core.lewis", "Lewis.explain_global", None),
    ("repro.core.lewis", "Lewis.explain_context", None),
    ("repro.core.lewis", "Lewis.explain_local_batch", None),
    ("repro.core.lewis", "Lewis.scores_batch", None),
    ("repro.core.lewis", "Lewis.recourse_audit", None),
    ("repro.core.lewis", "Lewis.apply_delta", None),
    ("repro.estimation.engine", "ContingencyEngine.tensor", None),
    ("repro.estimation.engine", "ContingencyEngine.apply_delta", None),
    ("repro.estimation.engine", "ContingencyEngine.probabilities", None),
    ("repro.estimation.engine", "ContingencyEngine.adjusted_probabilities", None),
    ("repro.core.scores", "ScoreEstimator.scores_batch", None),
    ("repro.core.scores", "ScoreEstimator.local_score_arrays", None),
    ("repro.estimation.outcome_model", "OutcomeProbabilityModel.fit", None),
    ("repro.estimation.logit", "LogitModel.fit", None),
    ("repro.models.pipeline", "TableModel.predict_codes", "arg1"),
    ("repro.core.recourse", "RecourseSolver.solve_batch", "arg1"),
    ("repro.core.recourse_kernel", "solve_signature", None),
    ("repro.store.wal", "DeltaLog.append", None),
    ("repro.store.wal", "DeltaLog.replay", "result"),
    ("repro.store.snapshot", "restore_session", None),
    # The post-update path refreshes monitors on the dispatch lane, not
    # through the synchronous ``MonitorSet.refresh``; wrap the step both
    # paths share.
    ("repro.monitor.monitors", "MonitorSet._refresh", None),
    ("repro.data.table", "Table.encode_rows", "arg1"),
]

#: modules holding their own reference to a wrapped module-level function
ALIASES = {"restore_session": ["repro.store.registry"]}


def _size(kind, args, result) -> int:
    """Work size of one call: its first argument's or its result's length."""
    if kind == "arg1":
        return len(args[1])
    if result is None:  # the call raised
        return 0
    return result if isinstance(result, int) else len(result)


class SpanRecorder:
    """Collects spans from every thread while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        from repro.obs.tracing import current_trace_id

        self._request_id = current_trace_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function, name: str, size_kind: str | None):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return function(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        recorder._request_id(),
                        _size(size_kind, args, result) if size_kind else None,
                    )
                )

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` (once per process)."""
        for module_name, path, size_kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            name = f"{module_name.removeprefix('repro.')}:{path}"
            wrapped = self.wrap(getattr(owner, attr), name, size_kind)
            setattr(owner, attr, wrapped)
            for alias in ALIASES.get(attr, ()):
                setattr(importlib.import_module(alias), attr, wrapped)

    def start(self) -> None:
        self.spans = []
        self.recording = True

    def stop_and_dump(self, path: str) -> None:
        """Stop recording and write the spans atomically to ``path``."""
        self.recording = False
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(spans, fh)
        os.replace(tmp, path)


def layer_of(name: str) -> str:
    """``"core.lewis:Lewis.explain_global"`` -> ``"core.lewis"``."""
    return name.split(":", 1)[0]


def self_times(spans) -> list[tuple]:
    """Each span with its self time: duration minus its child spans.

    Children run on the parent's thread and nest inside it, so the
    covered part of the parent's interval is the sum of their durations.
    Returns ``(name, duration_s, self_s, request_id, size)`` per span.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _rid, _size in spans:
        if parent:
            child_time[parent] += end - start
    return [
        (name, end - start, end - start - child_time[sid], rid, size)
        for sid, _parent, name, start, end, rid, size in spans
    ]
