"""Unit tests for text rendering and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.explanations import (
    AttributeScore,
    GlobalExplanation,
    LocalContribution,
    LocalExplanation,
)
from repro.core.recourse import Recourse, RecourseAction
from repro.report import (
    render_global,
    render_local,
    render_recourse,
    render_scores_table,
)


@pytest.fixture()
def global_explanation():
    return GlobalExplanation(
        context={},
        attribute_scores=[
            AttributeScore("age", 0.9, 0.4, 0.5),
            AttributeScore("savings", 0.2, 0.8, 0.7),
        ],
    )


class TestRenderGlobal:
    def test_chart_contains_attribute_and_value(self, global_explanation):
        out = render_global(global_explanation, title="T")
        assert out.startswith("T")
        assert "age" in out and "savings" in out
        assert "0.50" in out and "0.70" in out

    def test_chart_sorted_by_requested_score(self, global_explanation):
        out = render_global(global_explanation, kind="necessity")
        assert out.index("age") < out.index("savings")
        out = render_global(global_explanation, kind="sufficiency")
        assert out.index("savings") < out.index("age")

    def test_bar_length_monotone(self, global_explanation):
        out = render_global(global_explanation)
        lines = [l for l in out.splitlines() if "#" in l or "." in l]
        hashes = [l.count("#") for l in lines]
        assert hashes == sorted(hashes, reverse=True)

    def test_context_line(self):
        exp = GlobalExplanation(
            context={"sex": "Male"},
            attribute_scores=[AttributeScore("a", 0.1, 0.1, 0.1)],
        )
        assert "sex=Male" in render_global(exp)

    def test_scores_table_has_all_columns(self, global_explanation):
        out = render_scores_table(global_explanation)
        assert "NEC" in out and "SUF" in out and "NESUF" in out


class TestRenderLocal:
    def _explanation(self):
        return LocalExplanation(
            individual={"age": "<25"},
            outcome_positive=False,
            contributions=[
                LocalContribution("age", "<25", positive=0.0, negative=0.8),
                LocalContribution("savings", "high", positive=0.6, negative=0.0),
            ],
        )

    def test_outcome_and_signs(self):
        out = render_local(self._explanation(), title="L")
        assert "outcome: negative" in out
        assert "net=-0.80" in out
        assert "net=+0.60" in out

    def test_signed_bars_direction(self):
        out = render_local(self._explanation())
        negative_line = next(l for l in out.splitlines() if "age" in l)
        positive_line = next(l for l in out.splitlines() if "savings" in l)
        assert "-" in negative_line.split("net")[0]
        assert "+" in positive_line.split("net")[0]


class TestRenderRecourse:
    def test_empty(self):
        recourse = Recourse(
            actions=[], total_cost=0.0, estimated_sufficiency=1.0,
            estimated_probability=0.9, threshold=0.9, n_constraints=0, n_variables=0,
        )
        assert "No action needed" in render_recourse(recourse)

    def test_actions_listed(self):
        recourse = Recourse(
            actions=[RecourseAction("savings", "<100 DM", ">1000 DM", 3.0)],
            total_cost=3.0,
            estimated_sufficiency=0.9,
            estimated_probability=0.92,
            threshold=0.9,
            n_constraints=2,
            n_variables=4,
        )
        out = render_recourse(recourse, title="R")
        assert "<100 DM" in out and ">1000 DM" in out
        assert "90%" in out


class TestCLI:
    def test_explain_global(self, capsys):
        code = main(["explain", "--dataset", "german", "--rows", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NEC" in out

    def test_explain_chart(self, capsys):
        code = main(["explain", "--dataset", "german", "--rows", "300", "--chart"])
        assert code == 0
        assert "#" in capsys.readouterr().out

    def test_explain_contextual(self, capsys):
        code = main(
            ["explain", "--dataset", "german", "--rows", "300", "--context", "sex=Male"]
        )
        assert code == 0
        assert "contextual" in capsys.readouterr().out

    def test_explain_bad_context(self):
        with pytest.raises(SystemExit):
            main(["explain", "--rows", "300", "--context", "sexMale"])

    def test_local(self, capsys):
        code = main(["local", "--dataset", "german", "--rows", "300", "--negative"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: negative" in out

    def test_recourse(self, capsys):
        code = main(
            ["recourse", "--dataset", "german", "--rows", "300", "--alpha", "0.5"]
        )
        out = capsys.readouterr().out
        assert code in (0, 2)  # feasible or honestly infeasible
        if code == 0:
            assert "sufficiency" in out

    def test_recourse_no_actionable(self, capsys):
        code = main(["recourse", "--dataset", "compas", "--rows", "300"])
        assert code == 1

    def test_recourse_has_no_workers_flag(self, capsys):
        """The solver is serial; ``--workers`` is a usage error, not a no-op."""
        with pytest.raises(SystemExit) as exc:
            main(["recourse", "--dataset", "german", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_audit(self, capsys):
        code = main(["audit", "--dataset", "german", "--rows", "300"])
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert "sex" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "--dataset", "mnist"])
