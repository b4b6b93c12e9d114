"""Tests for the Holt-Winters forecaster."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.holtwinters import (
    FALLBACK,
    GRID_ALPHA,
    GRID_BETA,
    GRID_GAMMA,
    HoltWinters,
)


def _seasonal_series(days=14, period=48, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days * period)
    series = 0.4 + 0.25 * np.sin(2 * np.pi * t / period)
    return np.clip(series + rng.normal(0, noise, t.size), 0, 1)


class TestFitting:
    def test_too_short_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).fit(np.zeros(50))

    def test_bad_season_length_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=1)

    def test_grid_search_fills_params(self):
        model = HoltWinters(season_length=48).fit(_seasonal_series())
        assert model.alpha is not None
        assert model.beta is not None
        assert model.gamma is not None

    def test_explicit_params_kept(self):
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.05,
                            gamma=0.2)
        model.fit(_seasonal_series())
        assert (model.alpha, model.beta, model.gamma) == (0.3, 0.05, 0.2)


class TestForecasting:
    def test_forecast_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).forecast_next()

    def test_update_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).update(0.5)

    def test_tracks_clean_seasonal_signal(self):
        series = _seasonal_series(noise=0.001)
        train, test = series[:-96], series[-96:]
        model = HoltWinters(season_length=48).fit(train)
        forecasts = model.walk_forward(test)
        rmse = np.sqrt(np.mean((forecasts - test) ** 2))
        assert rmse < 0.02

    def test_seasonal_signal_beats_noise_only_baseline(self):
        series = _seasonal_series(noise=0.02)
        train, test = series[:-96], series[-96:]
        model = HoltWinters(season_length=48).fit(train)
        forecasts = model.walk_forward(test)
        model_rmse = np.sqrt(np.mean((forecasts - test) ** 2))
        naive_rmse = np.sqrt(np.mean((train.mean() - test) ** 2))
        assert model_rmse < naive_rmse

    def test_walk_forward_length(self):
        series = _seasonal_series()
        model = HoltWinters(season_length=48).fit(series[:-20])
        assert model.walk_forward(series[-20:]).shape == (20,)

    def test_constant_series_forecast_constant(self):
        series = np.full(480, 0.3)
        model = HoltWinters(season_length=48).fit(series)
        assert model.forecast_next() == pytest.approx(0.3, abs=0.02)

    def test_update_advances_phase(self):
        model = HoltWinters(season_length=48).fit(_seasonal_series())
        before = model._state.index
        model.update(0.5)
        assert model._state.index == before + 1


def _scalar_search(model, series, alphas, betas, gammas):
    """The grid-search oracle: nested loops of scalar ``_run`` passes."""
    best = (float("inf"), 0.3, 0.05, 0.2)
    for a in alphas:
        for b in betas:
            for g in gammas:
                sse, _ = model._run(series, a, b, g)
                if sse < best[0]:
                    best = (sse, a, b, g)
    return best[1:]


class TestVectorisedGrid:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_sse_equals_scalar_run(self, seed):
        series = _seasonal_series(noise=0.05, seed=seed)
        model = HoltWinters(season_length=48)
        alpha, beta, gamma = model._grid()
        assert alpha.size == len(GRID_ALPHA) * len(GRID_BETA) * len(GRID_GAMMA)
        sse = model._grid_sse(series, alpha, beta, gamma)
        expected = [model._run(series, a, b, g)[0]
                    for a, b, g in zip(alpha, beta, gamma)]
        assert np.array_equal(sse, expected)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_choice_equals_scalar_search(self, seed):
        series = _seasonal_series(noise=0.1, seed=seed)
        model = HoltWinters(season_length=48).fit(series)
        assert (model.alpha, model.beta, model.gamma) == _scalar_search(
            model, series, GRID_ALPHA, GRID_BETA, GRID_GAMMA)

    def test_ties_pick_first_combo_in_loop_order(self):
        # An all-zero series fits every combo with exactly zero error.
        series = np.zeros(480)
        model = HoltWinters(season_length=48)
        sse = model._grid_sse(series, *model._grid())
        assert np.all(sse == 0.0)
        model.fit(series)
        assert (model.alpha, model.beta, model.gamma) == (
            GRID_ALPHA[0], GRID_BETA[0], GRID_GAMMA[0])

    def test_all_nan_series_falls_back(self):
        model = HoltWinters(season_length=48)
        assert model._grid_search(np.full(480, np.nan)) == FALLBACK == (
            0.3, 0.05, 0.2)

    def test_partial_constants_kept_and_rest_searched(self):
        series = _seasonal_series(noise=0.05, seed=4)
        model = HoltWinters(season_length=48, alpha=0.5).fit(series)
        assert model.alpha == 0.5
        assert (model.beta, model.gamma) == _scalar_search(
            model, series, (0.5,), GRID_BETA, GRID_GAMMA)[1:]

    def test_partial_constants_use_single_point_axes(self):
        model = HoltWinters(season_length=48, beta=0.07, gamma=0.3)
        alpha, beta, gamma = model._grid()
        assert list(alpha) == list(GRID_ALPHA)
        assert set(beta) == {0.07} and set(gamma) == {0.3}
