"""Unit tests for the dataset generators and the registry."""

import hashlib
import json

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.registry import available_datasets
from repro.data.compas import compas_software_positive


def bundle_digest(bundle) -> str:
    """sha256 over a bundle's codes, domains and diagram orders.

    The structural causal model draws one noise vector per node in the
    diagram's topological order, so that order is covered along with
    the codes it produces.
    """
    table = bundle.table
    meta = {
        "names": table.names,
        "domains": [[repr(v) for v in table.domain(n)] for n in table.names],
        "nodes": bundle.graph.nodes,
        "edges": bundle.graph.edges,
        "order": bundle.graph.topological_order(),
    }
    if bundle.scm is not None:
        meta["scm"] = [
            bundle.scm.nodes,
            bundle.scm.diagram.edges,
            bundle.scm.diagram.topological_order(),
        ]
    digest = hashlib.sha256(json.dumps(meta).encode())
    for name in table.names:
        digest.update(np.ascontiguousarray(table.codes(name), dtype=np.int64).tobytes())
    return digest.hexdigest()


#: ``load_dataset(name, n_rows=2000, seed=0)`` digests. A change to the
#: diagram, the SCM or a generator that moves one generated byte fails here.
PINNED_DIGESTS = {
    "german": "1d671ceea21def2b6526304d84f60671b225f349d216d00be34f065e5dd4e19f",
    "adult": "52aa10b7084f8b06c61cf763e0707c2992314dac0e5d1c96bed30f96886bad22",
    "compas": "74eeb61dd02ec5710073b14e9a1e9a0965fb1916fb9214aab5a91528f984189d",
    "drug": "4e3783c83419246a33887cf1989eb5b7e65c03296ad1af3b09e1b9fc4ad1ffb4",
    "german_syn": "2e6ca4a91681df1a9a73b15582716eaa28b3575555edf7fee21cad709c30f392",
    "wide": "dbbf2456f5d1ada9f9e3e5e4ecac4b6b157bf8e5b2bbb9d8db0ad3d7afe8206e",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_bytes_are_pinned(name):
    assert bundle_digest(load_dataset(name, n_rows=2000, seed=0)) == PINNED_DIGESTS[name]


class TestRegistry:
    def test_available_datasets(self):
        assert set(available_datasets()) == {
            "german",
            "adult",
            "compas",
            "drug",
            "german_syn",
            "wide",
        }

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("mnist")

    def test_row_count_override(self):
        bundle = load_dataset("german", n_rows=123, seed=0)
        assert len(bundle.table) == 123

    def test_deterministic_given_seed(self):
        a = load_dataset("german", n_rows=100, seed=5)
        b = load_dataset("german", n_rows=100, seed=5)
        assert a.table.codes("credit_risk").tolist() == b.table.codes(
            "credit_risk"
        ).tolist()

    def test_different_seeds_differ(self):
        a = load_dataset("german", n_rows=200, seed=1)
        b = load_dataset("german", n_rows=200, seed=2)
        assert a.table.codes("savings").tolist() != b.table.codes("savings").tolist()


@pytest.mark.parametrize(
    "name, n_rows", [("german", 300), ("adult", 500), ("compas", 400), ("drug", 400)]
)
class TestClassificationBundles:
    def test_schema_consistency(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        assert len(bundle.table) == n_rows
        for feature in bundle.feature_names:
            assert feature in bundle.table
        assert bundle.label in bundle.table
        assert bundle.positive_label in bundle.table.domain(bundle.label)

    def test_graph_covers_features(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        for feature in bundle.feature_names:
            assert feature in bundle.graph

    def test_label_not_in_graph(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        assert bundle.label not in bundle.graph.nodes

    def test_both_label_values_present(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        counts = bundle.table.column(bundle.label).value_counts()
        present = [v for v, c in counts.items() if c > 0]
        assert len(present) >= 2

    def test_scm_attached(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        assert bundle.scm is not None
        assert set(bundle.feature_names) <= set(bundle.scm.nodes)

    def test_actionable_subset_of_features(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        assert set(bundle.actionable) <= set(bundle.feature_names)

    def test_contexts_resolvable(self, name, n_rows):
        bundle = load_dataset(name, n_rows=n_rows, seed=0)
        for context in bundle.contexts.values():
            for attr, value in context.items():
                assert value in bundle.table.domain(attr)


class TestGermanSpecifics:
    def test_label_depends_on_credit_history(self):
        bundle = load_dataset("german", n_rows=5_000, seed=0)
        table = bundle.table
        good = table.filter(credit_hist="all paid duly").codes("credit_risk").mean()
        bad = table.filter(credit_hist="delay in past").codes("credit_risk").mean()
        assert good > bad + 0.1

    def test_age_drives_employment(self):
        bundle = load_dataset("german", n_rows=5_000, seed=0)
        young = bundle.table.filter(age="<25 yr").codes("employment").mean()
        old = bundle.table.filter(age=">50 yr").codes("employment").mean()
        assert old > young + 0.5

    def test_unordered_attributes_flagged(self):
        bundle = load_dataset("german", n_rows=100, seed=0)
        assert not bundle.table.column("purpose").ordered
        assert bundle.table.column("savings").ordered


class TestAdultSpecifics:
    def test_marital_effect_on_income(self):
        bundle = load_dataset("adult", n_rows=8_000, seed=0)
        married = bundle.table.filter(marital="married").codes("income").mean()
        single = bundle.table.filter(marital="never married").codes("income").mean()
        assert married > single + 0.1

    def test_male_bias_encoded(self):
        bundle = load_dataset("adult", n_rows=8_000, seed=0)
        male = bundle.table.filter(sex="Male").codes("income").mean()
        female = bundle.table.filter(sex="Female").codes("income").mean()
        assert male > female


class TestCompasSpecifics:
    def test_priors_raise_recidivism(self):
        bundle = load_dataset("compas", n_rows=5_000, seed=0)
        high = bundle.table.filter(priors_count="10+").codes("two_year_recid").mean()
        low = bundle.table.filter(priors_count="0").codes("two_year_recid").mean()
        assert high > low + 0.2

    def test_software_score_biased_by_race(self):
        bundle = load_dataset("compas", n_rows=5_000, seed=0)
        features = bundle.table.select(bundle.feature_names)
        positive = compas_software_positive(features)
        white = positive[np.asarray(features.mask(race="White"))].mean()
        black = positive[np.asarray(features.mask(race="Black"))].mean()
        assert white > black + 0.1

    def test_no_actionable_attributes(self):
        bundle = load_dataset("compas", n_rows=100, seed=0)
        assert bundle.actionable == []

    def test_score_column_present(self):
        bundle = load_dataset("compas", n_rows=100, seed=0)
        assert "compas_score" in bundle.table


class TestDrugSpecifics:
    def test_three_class_outcome(self):
        bundle = load_dataset("drug", n_rows=1_000, seed=0)
        assert len(bundle.table.domain(bundle.label)) == 3
        assert bundle.positive_label == "never"

    def test_education_lowers_usage(self):
        bundle = load_dataset("drug", n_rows=8_000, seed=0)
        high_edu = bundle.table.filter(edu="masters+")
        low_edu = bundle.table.filter(edu="left school")
        # Code 0 = never used; lower mean code = less usage.
        assert high_edu.codes("mushrooms").mean() < low_edu.codes("mushrooms").mean()


class TestGermanSyn:
    def test_regression_label_domain_is_numeric(self):
        bundle = load_dataset("german_syn", n_rows=500, seed=0)
        domain = bundle.table.domain(bundle.label)
        assert all(isinstance(v, float) for v in domain)
        assert min(domain) == 0.0 and max(domain) == 1.0

    def test_age_sex_only_indirect(self):
        bundle = load_dataset("german_syn", n_rows=100, seed=0)
        scm = bundle.scm
        label_parents = scm.equation("credit_score").parents
        # age appears as a parent only for the violation term (weight 0
        # by default); sex must not appear at all.
        assert "sex" not in label_parents

    def test_violation_parameter_changes_scores(self):
        clean = load_dataset("german_syn", n_rows=4_000, seed=0)
        violated = load_dataset("german_syn", n_rows=4_000, seed=0, violation=2.0)
        assert clean.table.codes("credit_score").tolist() != violated.table.codes(
            "credit_score"
        ).tolist()

    def test_score_monotone_in_saving_without_violation(self):
        bundle = load_dataset("german_syn", n_rows=10_000, seed=0)
        means = [
            bundle.table.filter(saving=v).codes("credit_score").mean()
            for v in bundle.table.domain("saving")
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestWide:
    def test_variable_count(self):
        bundle = load_dataset("wide", n_rows=300, seed=0, n_variables=20)
        assert len(bundle.feature_names) == 20
        assert bundle.label == "outcome"

    def test_all_actionable(self):
        bundle = load_dataset("wide", n_rows=100, seed=0, n_variables=10)
        assert bundle.actionable == bundle.feature_names
