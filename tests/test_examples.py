"""Smoke tests for the example scripts.

Each example must import cleanly (catching API drift), and the cheapest
one runs end to end to guard the documented quickstart path.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        assert {
            "quickstart",
            "loan_recourse_german",
            "fairness_audit_compas",
            "drug_multiclass",
            "synthetic_ground_truth",
            "discover_and_explain",
        } <= set(EXAMPLES)

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_imports_and_has_main(self, name):
        module = _load(name)
        assert callable(getattr(module, "main", None)), f"{name} lacks main()"

    def test_quickstart_runs_end_to_end(self, capsys, monkeypatch):
        import repro

        module = _load("quickstart")
        # Shrink the dataset so the smoke run stays fast.
        original = repro.load_dataset
        monkeypatch.setattr(
            module,
            "load_dataset",
            lambda name, n_rows=1000, seed=0: original(name, n_rows=400, seed=seed),
        )
        module.main()
        out = capsys.readouterr().out
        assert "Global explanation" in out
        assert "Local explanation" in out
        assert "recourse" in out.lower()
