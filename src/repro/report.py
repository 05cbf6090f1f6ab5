"""Plain-text rendering of explanations (no plotting dependency).

The paper communicates through bar charts (Figures 3-11); in a
terminal-only environment this module renders the same artifacts as
aligned ASCII bars so examples and the CLI can show, not just list,
the scores.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.explanations import GlobalExplanation, LocalExplanation
from repro.core.recourse import Recourse

_BAR_WIDTH = 30


def _bar(value: float, width: int = _BAR_WIDTH, fill: str = "#") -> str:
    """Render ``value`` in [0, 1] as a fixed-width bar."""
    clamped = min(max(value, 0.0), 1.0)
    n = int(round(clamped * width))
    return fill * n + "." * (width - n)


def _signed_bar(value: float, width: int = _BAR_WIDTH // 2) -> str:
    """Render ``value`` in [-1, 1] as a centred signed bar."""
    clamped = min(max(value, -1.0), 1.0)
    n = int(round(abs(clamped) * width))
    if clamped >= 0:
        return " " * width + "|" + "+" * n + " " * (width - n)
    return " " * (width - n) + "-" * n + "|" + " " * width


def render_global(
    explanation: GlobalExplanation,
    kind: str = "necessity_sufficiency",
    title: str | None = None,
) -> str:
    """Figure-3-style horizontal bar chart of one score per attribute."""
    lines = []
    if title:
        lines.append(title)
    if explanation.context:
        ctx = ", ".join(f"{k}={v}" for k, v in explanation.context.items())
        lines.append(f"context: {ctx}")
    ordered = sorted(
        explanation.attribute_scores, key=lambda s: s.score(kind), reverse=True
    )
    name_width = max((len(s.attribute) for s in ordered), default=8)
    for s in ordered:
        value = s.score(kind)
        lines.append(f"{s.attribute:{name_width}s} {_bar(value)} {value:5.2f}")
    return "\n".join(lines)


def render_scores_table(explanation: GlobalExplanation, title: str | None = None) -> str:
    """All three scores per attribute, aligned."""
    lines = []
    if title:
        lines.append(title)
    name_width = max(
        (len(s.attribute) for s in explanation.attribute_scores), default=8
    )
    lines.append(f"{'attribute':{name_width}s}  {'NEC':>5s} {'SUF':>5s} {'NESUF':>5s}")
    for s in explanation.attribute_scores:
        lines.append(
            f"{s.attribute:{name_width}s}  {s.necessity:5.2f} "
            f"{s.sufficiency:5.2f} {s.necessity_sufficiency:5.2f}"
        )
    return "\n".join(lines)


def render_local(explanation: LocalExplanation, title: str | None = None) -> str:
    """Figure-5-style signed contribution chart for one individual."""
    lines = []
    if title:
        lines.append(title)
    outcome = "positive" if explanation.outcome_positive else "negative"
    lines.append(f"outcome: {outcome}")
    name_width = max(
        (len(f"{c.attribute}={c.value}") for c in explanation.contributions),
        default=12,
    )
    ordered = sorted(
        explanation.contributions,
        key=lambda c: max(c.positive, c.negative),
        reverse=True,
    )
    for c in ordered:
        label = f"{c.attribute}={c.value}"
        lines.append(f"{label:{name_width}s} {_signed_bar(c.net)} net={c.net:+.2f}")
    return "\n".join(lines)


def render_recourse(recourse: Recourse, title: str | None = None) -> str:
    """Figure-1-style recourse card."""
    lines = []
    if title:
        lines.append(title)
    if recourse.is_empty:
        lines.append("No action needed: the target probability is already met.")
        return "\n".join(lines)
    width = max(len(a.attribute) for a in recourse.actions)
    lines.append(f"{'attribute':{width}s}  {'current':>18s} -> {'required':>18s}")
    for a in recourse.actions:
        lines.append(
            f"{a.attribute:{width}s}  {str(a.current_value):>18s} -> "
            f"{str(a.new_value):>18s}"
        )
    lines.append(
        f"total cost {recourse.total_cost:.1f}; estimated sufficiency "
        f"{recourse.estimated_sufficiency:.0%}"
    )
    if recourse.mode != "exact":
        lines.append(
            f"mode {recourse.mode}: certified within "
            f"{recourse.optimality_gap:.3f} of the optimal cost"
        )
    return "\n".join(lines)


def render_recourse_audit(
    audit: Mapping, title: str | None = None, solver: Mapping | None = None
) -> str:
    """Cohort recourse-audit card: feasibility, costs, intervention mix.

    Renders the summary dict of :meth:`~repro.core.lewis.Lewis
    .recourse_audit` — feasible/infeasible counts and a bar per
    actionable attribute showing how often it appears in a recommended
    intervention — plus, when given, a line of the solver counters
    (:meth:`~repro.core.lewis.Lewis.solver_stats`).
    """
    lines = []
    if title:
        lines.append(title)
    n = max(int(audit.get("n", 0)), 1)
    lines.append(
        f"cohort of {audit['n']} (alpha={audit['alpha']}): "
        f"{audit['feasible']} feasible, {audit['infeasible']} infeasible, "
        f"{audit['already_satisfied']} already satisfied"
    )
    lines.append(
        f"cost over feasible recourses: mean {audit['mean_cost']:.2f}, "
        f"max {audit['max_cost']:.2f}"
    )
    counts = audit.get("attribute_counts") or {}
    if counts:
        width = max(len(a) for a in counts)
        for attribute, count in counts.items():
            lines.append(
                f"{attribute:{width}s} {_bar(count / n)} {count}"
            )
    if solver:
        mode = audit.get("mode", "exact")
        lines.append(
            f"solver ({mode}): {solver.get('solved_signatures', 0)} distinct "
            f"signatures, {solver.get('search_nodes', 0)} search nodes"
        )
    return "\n".join(lines)


def render_service_stats(stats: Mapping, title: str | None = None) -> str:
    """Aligned text view of :meth:`ExplainerSession.stats` output.

    Each level lists its scalar fields first, then its nested sections
    (scheduler, ``caches`` with one block per cache, solver) as indented
    ``key: value`` blocks, to any depth.
    """
    lines = [title] if title else []

    def section(fields: Mapping, indent: str) -> None:
        scalars = {k: v for k, v in fields.items() if not isinstance(v, Mapping)}
        width = max((len(k) for k in scalars), default=4)
        for key, value in scalars.items():
            shown = f"{value:.3f}" if isinstance(value, float) else value
            lines.append(f"{indent}{key:{width}s}  {shown}")
        for key, value in fields.items():
            if isinstance(value, Mapping):
                lines.append(f"{indent}{key}:")
                section(value, indent + "  ")

    section(stats, "")
    return "\n".join(lines)


def render_alert(alert: Mapping) -> str:
    """One drift alert as a single log-style line."""
    seq = alert.get("seq", "-")
    direction = alert.get("direction", "?")
    return (
        f"[alert {seq}] {alert['monitor_id']} {alert['detector']} "
        f"{alert['metric']} {direction}: "
        f"{alert['baseline']:.4f} -> {alert['value']:.4f} "
        f"(magnitude {alert['magnitude']:.4f}, wal_seq {alert['wal_seq']})"
    )


def render_monitor_list(listing: Mapping, title: str | None = None) -> str:
    """Aligned text view of the ``GET /v1/monitors`` response."""
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"position {listing.get('position', 0)}  "
        f"alerts_total {listing.get('alerts_total', 0)}"
    )
    monitors = listing.get("monitors") or []
    if not monitors:
        lines.append("(no monitors registered)")
        return "\n".join(lines)
    for monitor in monitors:
        metric = monitor["metric"]
        baseline = monitor["baseline"][metric]
        current = monitor["summary"][metric]
        drift = current - baseline
        detectors = ", ".join(monitor.get("detectors") or {}) or "none"
        lines.append(
            f"{monitor['id']:>4s}  {monitor['kind']:<12s} {metric:<22s} "
            f"baseline {baseline:8.4f}  current {current:8.4f}  "
            f"drift {drift:+8.4f}  batches {monitor['batches_seen']:>4d}  "
            f"alerts {monitor['alerts']:>3d}  detectors: {detectors}"
        )
    return "\n".join(lines)


def render_metrics_top(stats: Mapping, limit: int = 20) -> str:
    """Terminal summary of a ``/v1/stats`` response's metrics snapshot.

    Counters and gauges are ranked by value; histograms by observation
    count (shown with their mean in milliseconds). Accepts either the
    full ``/v1/stats`` body or a bare registry snapshot.
    """
    snapshot = stats.get("metrics", stats)
    limit = max(1, int(limit))
    lines = []
    for section in ("counters", "gauges"):
        entries = sorted(
            (snapshot.get(section) or {}).items(), key=lambda kv: -kv[1]
        )[:limit]
        if not entries:
            continue
        lines.append(f"{section}:")
        width = max(len(name) for name, _ in entries)
        for name, value in entries:
            shown = (
                int(value)
                if float(value).is_integer()
                else f"{value:.4f}"
            )
            lines.append(f"  {name:{width}s}  {shown}")
    histograms = snapshot.get("histograms") or {}
    if histograms:
        entries = sorted(
            histograms.items(), key=lambda kv: -kv[1]["count"]
        )[:limit]
        lines.append("histograms (count / mean ms):")
        width = max(len(name) for name, _ in entries)
        for name, hist in entries:
            count = int(hist["count"])
            mean_ms = (hist["sum"] / count * 1e3) if count else 0.0
            lines.append(f"  {name:{width}s}  {count:>8d} / {mean_ms:10.3f}")
    tracer = stats.get("tracing")
    if tracer:
        lines.append(
            f"tracing: {tracer['finished']} finished, "
            f"{tracer['slow_captured']} slow (>= {tracer['slow_ms']:g} ms), "
            f"{tracer['orphan_spans']} orphan spans"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_trace(record: Mapping) -> str:
    """Span waterfall for one finished trace (``GET /v1/traces`` entry)."""
    header = (
        f"trace {record['trace_id']}  {record['name']}  "
        f"{record['duration_ms']:.3f} ms  status={record['status']}"
    )
    if record.get("slow"):
        header += "  [slow]"
    lines = [header]
    spans = sorted(
        record.get("spans") or [], key=lambda s: s.get("started_unix", 0.0)
    )
    total = max(float(record["duration_ms"]), 1e-9)
    for entry in spans:
        share = float(entry["duration_ms"]) / total
        lines.append(
            f"  {entry['name']:<24s} {entry['duration_ms']:>10.3f} ms  "
            f"|{_bar(share, 24)}|"
            + (f"  {entry['tags']}" if entry.get("tags") else "")
        )
    if record.get("profile"):
        lines.append("  profile (top cumulative):")
        for row in record["profile"][:5]:
            lines.append(
                f"    {row['function']:<44s} calls {row['calls']:>6d}  "
                f"cum {row['cumtime_s']:.4f}s"
            )
    return "\n".join(lines)
