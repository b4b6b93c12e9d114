"""Tests for the seasonality-strength metric."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.seasonality import decompose, seasonality_strength


def _series(seasonal_amp, noise_amp, days=14, period=48, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days * period)
    return (0.5 + seasonal_amp * np.sin(2 * np.pi * t / period)
            + rng.normal(0, noise_amp, t.size))


class TestDecompose:
    def test_too_short_rejected(self):
        with pytest.raises(PredictionError):
            decompose(np.zeros(10), period=48)

    def test_bad_period_rejected(self):
        with pytest.raises(PredictionError):
            decompose(np.zeros(100), period=1)

    def test_components_reconstruct_series(self):
        series = _series(0.3, 0.02)
        trend, seasonal, remainder = decompose(series, 48)
        assert np.allclose(trend + seasonal + remainder, series)

    def test_seasonal_component_is_periodic(self):
        series = _series(0.3, 0.0)
        _, seasonal, _ = decompose(series, 48)
        assert np.allclose(seasonal[:48], seasonal[48:96])


class TestStrength:
    def test_pure_seasonal_near_one(self):
        assert seasonality_strength(_series(0.3, 0.001), 48) > 0.95

    def test_pure_noise_near_zero(self):
        assert seasonality_strength(_series(0.0, 0.2), 48) < 0.15

    def test_monotone_in_signal_to_noise(self):
        strong = seasonality_strength(_series(0.3, 0.05), 48)
        weak = seasonality_strength(_series(0.05, 0.05), 48)
        assert strong > weak

    def test_constant_series_zero(self):
        assert seasonality_strength(np.full(480, 0.5), 48) == 0.0

    def test_bounded(self):
        for seed in range(5):
            value = seasonality_strength(_series(0.2, 0.1, seed=seed), 48)
            assert 0.0 <= value <= 1.0

    def test_nep_profile_more_seasonal_than_azure(self, nep_dataset,
                                                  azure_dataset):
        # §4.4: edge VMs show stronger seasonality than cloud VMs.
        def mean_strength(dataset, count=20):
            period = dataset.cpu_points_per_day
            vm_ids = [v for v in dataset.vm_ids()
                      if dataset.mean_cpu(v) > 0.01][:count]
            return np.mean([
                seasonality_strength(dataset.cpu_series[v].astype(float),
                                     period)
                for v in vm_ids
            ])

        assert mean_strength(nep_dataset) > mean_strength(azure_dataset)


def _masked_phase_means(detrended, period):
    """The per-phase boolean-mask form the strided slice replaces."""
    phases = np.arange(detrended.size) % period
    return np.array([detrended[phases == p].mean() for p in range(period)])


class TestStridedPhaseMeans:
    @pytest.mark.parametrize("size,period", [
        (14 * 48, 48),       # whole periods
        (14 * 48 + 17, 48),  # a partial trailing period
        (5 * 288 + 1, 288),
        (1001, 7),
    ])
    def test_equals_boolean_mask_form(self, size, period):
        series = np.random.default_rng(size).random(size)
        trend, seasonal, remainder = decompose(series, period)
        means = _masked_phase_means(series - trend, period)
        means -= means.mean()
        expected = means[np.arange(size) % period]
        assert np.array_equal(seasonal, expected)
        assert np.array_equal(remainder, series - trend - expected)
