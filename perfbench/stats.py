"""Small statistics helpers shared by the runner and the self-tests."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


class TailTooThin(ValueError):
    """A percentile was asked for with fewer than 10 samples beyond it."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values, q: float) -> float:
    """``percentile`` that refuses a tail the sample cannot support.

    The nearest-rank ``q``-th percentile has ``n - ceil(q n / 100)``
    samples strictly beyond its rank; fewer than ``MIN_TAIL_SAMPLES``
    means the value is one or two outliers, not a tail.
    """
    n = len(values)
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    if beyond < MIN_TAIL_SAMPLES:
        raise TailTooThin(
            f"p{q:g} of {n} samples has {beyond} beyond it "
            f"(need >= {MIN_TAIL_SAMPLES})"
        )
    return percentile(values, q)


def median(values) -> float:
    """Median, or 0.0 when a layer saw no calls in this workload."""
    return float(statistics.median(values)) if values else 0.0


def check_metric_names(names) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
