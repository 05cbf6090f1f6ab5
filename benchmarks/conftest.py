"""Shared fixtures and reporting for the benchmark harness.

Each paper-harness ``bench_*.py`` module regenerates one table or figure
of the paper, named in its docstring (README.md describes the harness).
Heavy setup (dataset generation, model training) lives in session
fixtures; the timed portion is the LEWIS operation the paper reports.

Every benchmark also writes the rows/series the paper's artifact shows
into ``benchmarks/results/<experiment>.txt`` so the shapes can be
compared against the paper; the machine-readable ``results/*.json``
files carry the system benchmarks' numbers with their provenance.

Set ``REPRO_FULL=1`` to run at the paper's full dataset sizes (Table 2);
the default sizes are scaled down so the whole harness completes in
minutes on a laptop.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro import Lewis, fit_table_model, load_dataset, train_test_split

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parents[1]


def result_envelope() -> dict:
    """Shared provenance envelope every results JSON embeds.

    Benchmark numbers are only comparable when pinned to the code and
    environment that produced them; every ``benchmarks/results/*.json``
    writer stamps this envelope under a ``provenance`` key.
    """
    import numpy

    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
    }

FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: benchmark dataset sizes (paper scale under REPRO_FULL)
SIZES = {
    "german": 1_000,
    "adult": 48_000 if FULL else 6_000,
    "compas": 5_200,
    "drug": 1_886,
    "german_syn": 10_000,
}


def write_report(name: str, lines: list[str]) -> None:
    """Persist one experiment's output rows under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")


def write_json(name: str, payload: dict) -> None:
    """Persist machine-readable results under benchmarks/results/<name>.json.

    The JSON mirror of :func:`write_report` — per-op wall times and
    speedups in a stable schema, so the perf trajectory is diffable
    across PRs instead of locked in formatted text.  Every payload is
    stamped with the shared :func:`result_envelope` provenance.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"provenance": result_envelope(), **payload}
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def format_scores_block(title: str, explanation) -> list[str]:
    """Render a GlobalExplanation the way the paper's bar charts read."""
    lines = [title, f"{'attribute':16s} {'NEC':>6s} {'SUF':>6s} {'NESUF':>6s}"]
    for row in explanation.as_rows():
        lines.append(
            f"{row['attribute']:16s} {row['necessity']:6.2f} "
            f"{row['sufficiency']:6.2f} {row['necessity_sufficiency']:6.2f}"
        )
    return lines


@pytest.fixture(scope="session")
def bundles():
    """All five benchmark datasets at harness scale."""
    return {
        name: load_dataset(name, n_rows=size, seed=0)
        for name, size in SIZES.items()
    }


@pytest.fixture(scope="session")
def trained(bundles):
    """(model, train, test) per classification dataset, RF unless noted."""
    out = {}
    for name in ("german", "adult", "compas", "drug"):
        bundle = bundles[name]
        train, test = train_test_split(bundle.table, test_fraction=0.3, seed=0)
        model = fit_table_model(
            "random_forest",
            train,
            bundle.feature_names,
            bundle.label,
            seed=0,
            n_estimators=20,
            max_depth=10,
        )
        out[name] = (model, train, test)
    # German-syn uses the paper's random-forest *regressor*.
    bundle = bundles["german_syn"]
    train, test = train_test_split(bundle.table, test_fraction=0.3, seed=0)
    model = fit_table_model(
        "random_forest_regressor",
        train,
        bundle.feature_names,
        bundle.label,
        seed=0,
        n_estimators=20,
        max_depth=10,
    )
    out["german_syn"] = (model, train, test)
    return out


@pytest.fixture(scope="session")
def explainers(bundles, trained):
    """A ready Lewis object per dataset."""
    out = {}
    for name in ("german", "adult", "compas", "drug"):
        bundle = bundles[name]
        model, _train, test = trained[name]
        out[name] = Lewis(
            model,
            data=test,
            graph=bundle.graph,
            positive_outcome=bundle.positive_label,
        )
    bundle = bundles["german_syn"]
    model, _train, test = trained["german_syn"]
    out["german_syn"] = Lewis(model, data=test, graph=bundle.graph, threshold=0.5)
    return out
