"""Unit tests for bootstrap score intervals and PDP/ICE baselines."""

import numpy as np
import pytest

from repro.core.uncertainty import BootstrapScores, ScoreInterval
from repro.data.table import Column, Table
from repro.xai.pdp import ice_curves, partial_dependence


def _setup(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, n)
    z = rng.integers(0, 2, n)
    table = Table(
        [
            Column.from_codes("x", x, (0, 1, 2)),
            Column.from_codes("z", z, (0, 1)),
        ]
    )
    positive = (x + z) >= 2
    return table, positive


class TestBootstrapScores:
    def test_interval_contains_point(self):
        table, positive = _setup(3_000)
        boot = BootstrapScores(table, positive, n_bootstrap=30, seed=0)
        interval = boot.interval("sufficiency", {"x": 2}, {"x": 0})
        assert interval.lower - 0.05 <= interval.point <= interval.upper + 0.05

    def test_width_shrinks_with_sample_size(self):
        small_table, small_pos = _setup(300, seed=1)
        large_table, large_pos = _setup(10_000, seed=1)
        small = BootstrapScores(small_table, small_pos, n_bootstrap=30, seed=0)
        large = BootstrapScores(large_table, large_pos, n_bootstrap=30, seed=0)
        w_small = small.interval("necessity_sufficiency", {"x": 1}, {"x": 0}).width
        w_large = large.interval("necessity_sufficiency", {"x": 1}, {"x": 0}).width
        assert w_large < w_small

    def test_all_three_intervals(self):
        table, positive = _setup(2_000)
        boot = BootstrapScores(table, positive, n_bootstrap=20, seed=0)
        out = boot.intervals({"x": 2}, {"x": 0})
        assert set(out) == {"necessity", "sufficiency", "necessity_sufficiency"}
        for interval in out.values():
            assert 0.0 <= interval.lower <= interval.upper <= 1.0

    def test_levels_nest(self):
        table, positive = _setup(1_500)
        boot = BootstrapScores(table, positive, n_bootstrap=40, seed=0)
        narrow = boot.interval("sufficiency", {"x": 2}, {"x": 0}, level=0.5)
        wide = boot.interval("sufficiency", {"x": 2}, {"x": 0}, level=0.95)
        assert wide.width >= narrow.width - 1e-9

    def test_validation(self):
        table, positive = _setup(100)
        with pytest.raises(ValueError):
            BootstrapScores(table, positive, n_bootstrap=1)
        with pytest.raises(ValueError):
            BootstrapScores(table, positive[:-1])
        boot = BootstrapScores(table, positive, n_bootstrap=5)
        with pytest.raises(ValueError):
            boot.interval("sufficiency", {"x": 2}, {"x": 0}, level=1.5)

    def test_score_interval_str(self):
        s = ScoreInterval(0.5, 0.4, 0.6, 0.9, 10)
        assert "0.500" in str(s)
        assert s.width == pytest.approx(0.2)


class TestPartialDependence:
    def _predict(self, t):
        return (t.codes("x") + t.codes("z")) >= 2

    def test_monotone_rule_gives_monotone_pdp(self):
        table, _pos = _setup(4_000)
        pdp = partial_dependence(self._predict, table, "x")
        assert list(pdp.averages) == sorted(pdp.averages)

    def test_pdp_values_are_domain(self):
        table, _pos = _setup(1_000)
        pdp = partial_dependence(self._predict, table, "x")
        assert pdp.values == (0, 1, 2)
        assert pdp.as_dict()[2] > pdp.as_dict()[0]

    def test_range_reflects_relevance(self):
        table, _pos = _setup(4_000)
        relevant = partial_dependence(self._predict, table, "x").range
        # z matters less (only 2 values, weight 1 of the sum).
        other = partial_dependence(self._predict, table, "z").range
        assert relevant >= other

    def test_ice_matrix_shape(self):
        table, _pos = _setup(500)
        ice = ice_curves(self._predict, table, "x")
        assert ice.matrix.shape == (500, 3)

    def test_ice_mean_is_pdp(self):
        table, _pos = _setup(800)
        ice = ice_curves(self._predict, table, "x")
        pdp = partial_dependence(self._predict, table, "x")
        assert np.allclose(ice.partial_dependence.averages, pdp.averages)

    def test_subsampling_cap(self):
        table, _pos = _setup(5_000)
        ice = ice_curves(self._predict, table, "x", max_rows=100, seed=0)
        assert ice.matrix.shape[0] == 100
