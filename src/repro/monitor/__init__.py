"""Streaming audit & drift subsystem: standing monitors over the WAL.

Registered monitors — NEC/SUF score summaries for pinned contrasts,
fairness-gap and monotonicity-violation counters, recourse-feasibility
rates over probe cohorts — refresh incrementally from the engine's
delta-updated count tensors after every WAL batch, compare against
frozen baselines through threshold / CUSUM drift detectors, and append
typed alerts to a durable journal that long-poll ``watch`` clients
consume with a seq cursor.
"""

from repro.monitor.detectors import (
    Alert,
    CusumDetector,
    ThresholdDetector,
    build_detectors,
)
from repro.monitor.journal import MonitorJournal
from repro.monitor.monitors import MonitorSet
from repro.monitor.scheduler import MonitorScheduler
from repro.monitor.summaries import (
    METRICS,
    MONITOR_KINDS,
    compute_summary,
    encode_spec,
)

__all__ = [
    "METRICS",
    "MONITOR_KINDS",
    "Alert",
    "CusumDetector",
    "MonitorJournal",
    "MonitorScheduler",
    "MonitorSet",
    "ThresholdDetector",
    "build_detectors",
    "compute_summary",
    "encode_spec",
]
