"""Tests for the batched (n_vms, n_ticks) series generators."""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.errors import ConfigurationError
from repro.workload import patterns
from repro.workload.apps import NEP_PROFILES, profiles_by_category
from repro.workload.bandwidth import (
    PRIVATE_FRACTION_RANGE,
    derive_private_series_batch,
    generate_bw_series_batch,
)
from repro.workload.cpu import (
    BURST_HOLD_INTERVALS,
    BURST_SCALE,
    _burst_cells,
    generate_cpu_series_batch,
)
from repro.workload.patterns import (
    ar1_noise_batch,
    bernoulli_hits,
    regime_switching_levels,
    time_axis_minutes,
)

WEEK = time_axis_minutes(7, 5)
PROFILE = profiles_by_category(NEP_PROFILES)["live_streaming"]


class TestPatternBatches:
    def test_ar1_batch_shape(self, rng):
        noise = ar1_noise_batch(5, 200, rng)
        assert noise.shape == (5, 200)
        assert (noise >= 0.05).all()

    def test_ar1_batch_rows_independent(self, rng):
        noise = ar1_noise_batch(2, 4000, rng)
        correlation = np.corrcoef(noise[0], noise[1])[0, 1]
        assert abs(correlation) < 0.1

    def test_ar1_scalar_is_batch_row(self):
        # A one-row draw is the first row of a wider batch: the normals
        # fill row-major, and the filter runs per row.
        scalar = ar1_noise_batch(1, 300, np.random.default_rng(9))
        batch = ar1_noise_batch(3, 300, np.random.default_rng(9))
        np.testing.assert_array_equal(scalar[0], batch[0])

    def test_regime_levels_shape_and_bounds(self, rng):
        levels = regime_switching_levels(6, 500, rng, low=0.2, high=2.5)
        assert levels.shape == (6, 500)
        assert (levels >= 0.2).all() and (levels <= 2.5).all()

    def test_regime_levels_piecewise_constant_per_row(self, rng):
        levels = regime_switching_levels(4, 2000, rng,
                                         switch_probability=0.01)
        for row in levels:
            # Few distinct values per row, each held over a long stretch.
            assert len(np.unique(row)) < 60

    def test_regime_levels_rows_differ(self, rng):
        levels = regime_switching_levels(2, 1000, rng)
        assert not np.array_equal(levels[0], levels[1])

    def test_bad_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ar1_noise_batch(0, 100, rng)
        with pytest.raises(ConfigurationError):
            regime_switching_levels(0, 100, rng)


class TestCpuBatch:
    def test_shape_and_bounds(self, rng):
        levels = np.array([0.1, 0.4, 0.8])
        series = generate_cpu_series_batch(PROFILE, levels, WEEK, rng)
        assert series.shape == (3, WEEK.size)
        assert (series >= 0).all() and (series <= 1).all()

    def test_rows_track_their_levels(self, rng):
        levels = np.array([0.1, 0.5])
        series = generate_cpu_series_batch(PROFILE, levels, WEEK, rng)
        assert series[0].mean() == pytest.approx(0.1, rel=0.25)
        assert series[1].mean() == pytest.approx(0.5, rel=0.25)

    def test_matches_scalar_distribution(self):
        """Batch rows and a one-row batch agree in mean within tolerance."""
        scalar = generate_cpu_series_batch(PROFILE, np.array([0.3]), WEEK,
                                           np.random.default_rng(21))[0]
        batch = generate_cpu_series_batch(PROFILE, np.full(8, 0.3), WEEK,
                                          np.random.default_rng(22))
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.15)

    def test_bad_level_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILE, np.array([0.5, 1.5]), WEEK,
                                      rng)
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILE, np.array([]), WEEK, rng)


class TestBandwidthBatch:
    def test_shape_and_sign(self, rng):
        means = np.array([5.0, 50.0])
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng)
        assert series.shape == (2, WEEK.size)
        assert (series >= 0).all()

    def test_rows_track_their_means(self, rng):
        means = np.array([5.0, 50.0])
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng)
        assert series[1].mean() > series[0].mean() * 5

    def test_matches_scalar_distribution(self):
        scalar = generate_bw_series_batch(PROFILE, np.array([20.0]), WEEK,
                                          np.random.default_rng(31))[0]
        batch = generate_bw_series_batch(PROFILE, np.full(8, 20.0), WEEK,
                                         np.random.default_rng(32))
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.2)

    def test_erratic_rows_more_variable(self, rng):
        means = np.full(16, 20.0)
        erratic = np.zeros(16, dtype=bool)
        erratic[8:] = True
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng,
                                          erratic=erratic)
        calm_cv = np.mean([row.std() / row.mean() for row in series[:8]])
        wild_cv = np.mean([row.std() / row.mean() for row in series[8:]])
        assert wild_cv > calm_cv

    def test_private_batch_small_fraction(self, rng):
        public = generate_bw_series_batch(PROFILE, np.full(4, 30.0), WEEK,
                                          rng)
        private = derive_private_series_batch(public, rng)
        assert private.shape == public.shape
        assert private.mean() < public.mean()

    def test_private_scalar_matches_batch_path(self):
        # One row is public x fraction x wobble, drawn in that order.
        public = generate_bw_series_batch(PROFILE, np.array([30.0]), WEEK,
                                          np.random.default_rng(41))[0]
        batch = derive_private_series_batch(public[None, :],
                                            np.random.default_rng(42))
        rng = np.random.default_rng(42)
        fraction = rng.uniform(*PRIVATE_FRACTION_RANGE, size=1)
        wobble = ar1_noise_batch(1, WEEK.size, rng, rho=0.8, sigma=0.3)[0]
        np.testing.assert_array_equal(batch[0],
                                      wobble * public * fraction[0])


def _dense_ar1(count, points, rng, rho=0.9, sigma=0.15):
    """The whole-matrix AR(1) draw that the slabbed one must equal."""
    innovations = rng.standard_normal((count, points))
    innovations *= sigma * np.sqrt(1 - rho * rho)
    noise = lfilter([1.0], [1.0, -rho], innovations, axis=1)
    noise += 1.0
    np.maximum(noise, 0.05, out=noise)
    return noise


def _burst_multipliers(count, points, probability, rng):
    """The dense burst matrix the sparse bursts replaced (test oracle)."""
    hits = rng.random((count, points)) < probability
    magnitudes = np.zeros((count, points), dtype=np.float64)
    n_hits = int(hits.sum())
    if n_hits:
        magnitudes[hits] = rng.uniform(*BURST_SCALE, size=n_hits)
    multiplier = np.ones((count, points), dtype=np.float64)
    for shift in range(BURST_HOLD_INTERVALS):
        if shift >= points:
            break
        np.maximum(multiplier[:, shift:], magnitudes[:, :points - shift],
                   out=multiplier[:, shift:])
    return multiplier


class TestSlabDraws:
    """Slab-by-slab draws consume the stream exactly like one call."""

    @pytest.fixture
    def small_slabs(self, monkeypatch):
        # 3 rows of 50 float64 cells per slab: never divides count=10.
        monkeypatch.setattr(patterns, "SLAB_BYTES", 3 * 50 * 8)
        assert patterns.slab_rows(50) == 3

    def test_ar1_slabs_equal_one_draw(self, small_slabs):
        slabbed_rng = np.random.default_rng(5)
        dense_rng = np.random.default_rng(5)
        slabbed = ar1_noise_batch(10, 50, slabbed_rng, rho=0.7, sigma=0.4)
        dense = _dense_ar1(10, 50, dense_rng, rho=0.7, sigma=0.4)
        np.testing.assert_array_equal(slabbed, dense)
        assert slabbed_rng.random() == dense_rng.random()

    def test_bernoulli_hits_equal_one_matrix(self, small_slabs):
        slabbed_rng = np.random.default_rng(6)
        dense_rng = np.random.default_rng(6)
        hits = bernoulli_hits(10, 50, 0.05, slabbed_rng)
        dense = np.flatnonzero(dense_rng.random((10, 50)) < 0.05)
        np.testing.assert_array_equal(hits, dense)
        assert hits.size > 0
        assert slabbed_rng.random() == dense_rng.random()

    def test_slab_rows_fit_the_budget(self):
        for points in (50, 8064, 132_480):
            rows = patterns.slab_rows(points)
            assert rows >= 1
            assert rows * points * 8 <= patterns.SLAB_BYTES
            assert (rows + 1) * points * 8 > patterns.SLAB_BYTES
        assert patterns.slab_rows(10 ** 9) == 1


class TestSparseBursts:
    """Sparse burst cells reproduce the dense multiplier bit for bit."""

    @pytest.mark.parametrize("count,points,probability,seed", [
        (7, 40, 0.15, 1),     # overlapping bursts
        (5, 9, 0.5, 2),       # hits in the last 3 columns of most rows
        (6, 3, 0.4, 3),       # points < BURST_HOLD_INTERVALS
        (4, 1, 0.5, 4),
        (3, 2, 0.9, 5),
        (4, 30, 0.0, 6),      # no burst at all: no magnitude draw
        (4, 30, 1.0, 7),      # every cell starts a burst
        (64, 2016, 0.001, 8),
    ])
    def test_equal_to_dense_multiplier(self, count, points, probability,
                                       seed):
        base = np.random.default_rng(99).uniform(0.05, 2.0,
                                                 (count, points))
        dense_rng = np.random.default_rng(seed)
        sparse_rng = np.random.default_rng(seed)
        expected = base * _burst_multipliers(count, points, probability,
                                             dense_rng)
        cells, multipliers = _burst_cells(count, points, probability,
                                          sparse_rng)
        actual = base.copy()
        actual.reshape(-1)[cells] *= multipliers
        np.testing.assert_array_equal(actual, expected)
        assert sparse_rng.random() == dense_rng.random()
        assert np.all(np.diff(cells) > 0)

    def test_cases_cover_overlaps_and_row_ends(self):
        cells, _ = _burst_cells(7, 40, 0.15, np.random.default_rng(1))
        starts = np.flatnonzero(
            np.random.default_rng(1).random((7, 40)) < 0.15)
        # Some cell is held by two bursts, and some burst starts in the
        # last 3 columns of its row, so its hold is cut at the row end.
        same_row = np.diff(starts // 40) == 0
        assert np.any(same_row & (np.diff(starts) < BURST_HOLD_INTERVALS))
        assert np.any(starts % 40 >= 40 - 3)
        assert np.all(cells // 40 < 7)
