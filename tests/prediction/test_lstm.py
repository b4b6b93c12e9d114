"""Tests for the numpy LSTM forecaster."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.lstm import LSTMForecaster


def _sine(points=600, period=48, noise=0.005, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(points)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / period) \
        + rng.normal(0, noise, points)


class TestArchitecture:
    def test_paper_weight_count(self):
        # §4.4: "1 layer and 24 units (2496 weights)".
        assert LSTMForecaster(hidden=24).lstm_weight_count == 2496

    def test_bad_window_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(window=1)

    def test_bad_hidden_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(hidden=0)


class TestTraining:
    def test_too_short_series_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(window=24).fit(np.zeros(10))

    def test_learns_sine_better_than_mean(self):
        series = _sine()
        train, test = series[:500], series[500:]
        model = LSTMForecaster(window=24, epochs=40, seed=1).fit(train)
        preds = model.walk_forward(train, test)
        model_rmse = np.sqrt(np.mean((preds - test) ** 2))
        naive_rmse = np.sqrt(np.mean((train.mean() - test) ** 2))
        assert model_rmse < 0.5 * naive_rmse

    def test_training_reduces_loss(self):
        series = _sine(points=400)
        few = LSTMForecaster(window=24, epochs=2, seed=2).fit(series[:350])
        many = LSTMForecaster(window=24, epochs=40, seed=2).fit(series[:350])
        test = series[350:]
        rmse_few = np.sqrt(np.mean(
            (few.walk_forward(series[:350], test) - test) ** 2))
        rmse_many = np.sqrt(np.mean(
            (many.walk_forward(series[:350], test) - test) ** 2))
        assert rmse_many < rmse_few

    def test_deterministic_given_seed(self):
        series = _sine(points=300)
        a = LSTMForecaster(window=12, epochs=5, seed=3).fit(series)
        b = LSTMForecaster(window=12, epochs=5, seed=3).fit(series)
        assert a.predict_next(series) == b.predict_next(series)

    def test_constant_series_handled(self):
        # std = 0 must not divide by zero.
        series = np.full(200, 0.4)
        model = LSTMForecaster(window=12, epochs=3).fit(series)
        assert np.isfinite(model.predict_next(series))


class TestPrediction:
    def test_short_history_rejected(self):
        model = LSTMForecaster(window=24, epochs=2).fit(_sine(points=200))
        with pytest.raises(PredictionError):
            model.predict_next(np.zeros(10))

    def test_walk_forward_length(self):
        series = _sine(points=300)
        model = LSTMForecaster(window=12, epochs=3).fit(series[:250])
        preds = model.walk_forward(series[:250], series[250:])
        assert preds.shape == (50,)


def _predict_next_loop(model, train, test):
    """The walk-forward oracle: one ``predict_next`` call per test step."""
    history = np.concatenate([train, test])
    return np.array([model.predict_next(history[:train.size + i])
                     for i in range(test.size)])


class TestBatchedWalkForward:
    @pytest.mark.parametrize("window", [12, 24])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_predict_next_loop(self, window, seed):
        series = _sine(points=480, seed=seed, noise=0.05)
        train, test = series[:400], series[400:]
        model = LSTMForecaster(window=window, epochs=3, seed=seed).fit(train)
        assert np.array_equal(model.walk_forward(train, test),
                              _predict_next_loop(model, train, test))

    def test_constant_series_equals_loop(self):
        # std = 0 takes the scale = 1 normalisation path (0.5 is exact
        # in binary, so the mean is too and the std is exactly 0).
        series = np.full(200, 0.5)
        model = LSTMForecaster(window=12, epochs=3).fit(series[:150])
        assert model._scale == 1.0
        assert np.array_equal(
            model.walk_forward(series[:150], series[150:]),
            _predict_next_loop(model, series[:150], series[150:]))

    def test_single_step_test_equals_loop(self):
        series = _sine(points=200)
        model = LSTMForecaster(window=12, epochs=3).fit(series[:199])
        preds = model.walk_forward(series[:199], series[199:])
        assert preds.shape == (1,)
        assert preds[0] == model.predict_next(series[:199])

    def test_empty_test(self):
        series = _sine(points=200)
        model = LSTMForecaster(window=12, epochs=2).fit(series)
        assert model.walk_forward(series, np.empty(0)).shape == (0,)

    def test_short_train_rejected_like_predict_next(self):
        model = LSTMForecaster(window=24, epochs=2).fit(_sine(points=200))
        with pytest.raises(PredictionError) as batched:
            model.walk_forward(np.zeros(10), np.zeros(5))
        with pytest.raises(PredictionError) as scalar:
            model.predict_next(np.zeros(10))
        assert str(batched.value) == str(scalar.value)
