"""Deep checks of the dataset SCMs' causal structure.

The substitution argument in DESIGN.md rests on the replicas encoding
the qualitative causal structure the paper's analysis uses; these tests
pin that structure down so future edits to the generators cannot
silently break an experiment's premise.
"""

import pytest

from repro.data import load_dataset


@pytest.fixture(scope="module")
def german():
    return load_dataset("german", n_rows=200, seed=0)


@pytest.fixture(scope="module")
def adult():
    return load_dataset("adult", n_rows=200, seed=0)


@pytest.fixture(scope="module")
def compas():
    return load_dataset("compas", n_rows=200, seed=0)


@pytest.fixture(scope="module")
def drug():
    return load_dataset("drug", n_rows=200, seed=0)


class TestGermanStructure:
    def test_demographics_are_roots(self, german):
        graph = german.graph
        assert graph.parents("sex") == []
        assert graph.parents("age") == []

    def test_age_upstream_of_financials(self, german):
        descendants = german.graph.descendants("age")
        for attribute in ("employment", "savings", "credit_hist"):
            assert attribute in descendants

    def test_status_confounded_through_savings(self, german):
        # savings -> status, and savings also drives the label: status's
        # backdoor set in the outcome-extended graph must be non-empty.
        graph = german.graph.with_outcome("__o__", german.feature_names)
        found = graph.backdoor_set("status", "__o__")
        assert found  # non-empty adjustment set needed

    def test_every_feature_has_admissible_backdoor(self, german):
        graph = german.graph.with_outcome("__o__", german.feature_names)
        for feature in german.feature_names:
            assert graph.backdoor_set(feature, "__o__") is not None


class TestAdultStructure:
    def test_roots(self, adult):
        for root in ("age", "sex", "country"):
            assert adult.graph.parents(root) == []

    def test_marital_descends_from_age_and_sex(self, adult):
        parents = adult.graph.parents("marital")
        assert "age" in parents and "sex" in parents

    def test_occupation_downstream_of_education(self, adult):
        assert "occup" in adult.graph.descendants("edu")

    def test_hours_has_three_parents(self, adult):
        assert set(adult.graph.parents("hours")) == {"occup", "marital", "sex"}


class TestCompasStructure:
    def test_race_upstream_of_criminal_history(self, compas):
        descendants = compas.graph.descendants("race")
        assert "juv_fel_count" in descendants
        assert "priors_count" in descendants

    def test_score_mechanism_uses_race_directly(self, compas):
        # The documented bias: race is a parent of the software score.
        assert "race" in compas.scm.equation("compas_score").parents

    def test_recidivism_mechanism_does_not_use_race(self, compas):
        assert "race" not in compas.scm.equation("two_year_recid").parents


class TestDrugStructure:
    def test_paper_roots(self, drug):
        for root in ("country", "age", "gender", "ethnicity"):
            assert drug.graph.parents(root) == []

    def test_sensation_depends_on_impulsivity(self, drug):
        assert "impulsive" in drug.graph.parents("sensation")

    def test_label_mechanism_spans_demographics_and_traits(self, drug):
        parents = set(drug.scm.equation("mushrooms").parents)
        assert {"country", "age", "sensation", "edu"} <= parents


class TestCrossDatasetInvariants:
    @pytest.mark.parametrize("name", ["german", "adult", "compas", "drug", "german_syn"])
    def test_graphs_are_acyclic_and_feature_complete(self, name):
        bundle = load_dataset(name, n_rows=100, seed=0)
        order = bundle.graph.topological_order()  # raises on cycles
        assert set(bundle.feature_names) <= set(order)

    @pytest.mark.parametrize("name", ["german", "adult", "compas", "drug"])
    def test_scm_regenerates_identical_tables(self, name):
        a = load_dataset(name, n_rows=150, seed=42)
        b = load_dataset(name, n_rows=150, seed=42)
        for column in a.table.names:
            assert a.table.codes(column).tolist() == b.table.codes(column).tolist()

    @pytest.mark.parametrize("name", ["german", "adult", "compas", "drug"])
    def test_label_rate_not_degenerate(self, name):
        bundle = load_dataset(name, n_rows=3_000, seed=0)
        counts = bundle.table.column(bundle.label).value_counts()
        total = sum(counts.values())
        for value, count in counts.items():
            assert count / total < 0.95, f"{name}: label {value} dominates"
