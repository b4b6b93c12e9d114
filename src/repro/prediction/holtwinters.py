"""Additive Holt-Winters triple exponential smoothing (§4.4).

The paper uses Holt-Winters [31] to predict each VM's max/mean CPU usage
for the next half-hour window.  This implementation keeps (level, trend,
seasonal) state, supports one-step-ahead walk-forward forecasting, and
picks its smoothing constants by a coarse grid search on training error —
matching how the method is applied in capacity-planning practice.

The grid search runs every (alpha, beta, gamma) combination in one
smoothing pass: level and trend are arrays over the combinations and the
seasonal state is a ``(season_length, combos)`` array.  Each element sees
the same IEEE operations, in the same order, as the scalar
:meth:`HoltWinters._run` pass (``1 - alpha`` and friends are precomputed,
which rounds the same), so the per-combination SSEs — and the chosen
constants — equal a loop of 36 scalar passes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError

#: Smoothing-constant grids searched by :meth:`HoltWinters.fit`.
GRID_ALPHA = (0.1, 0.3, 0.5, 0.8)
GRID_BETA = (0.0, 0.05, 0.1)
GRID_GAMMA = (0.05, 0.2, 0.4)
#: Constants used when no grid combination yields a finite SSE.
FALLBACK = (0.3, 0.05, 0.2)


@dataclass
class _HWState:
    level: float
    trend: float
    season: np.ndarray  # length = season_length
    index: int          # phase of the next observation


class HoltWinters:
    """Additive-seasonal Holt-Winters one-step forecaster.

    Args:
        season_length: observations per seasonal cycle (e.g. 48 half-hour
            windows per day).
        alpha, beta, gamma: smoothing constants; any left as None are
            chosen by grid search in :meth:`fit`, with the given ones
            held fixed.
    """

    def __init__(self, season_length: int, alpha: float | None = None,
                 beta: float | None = None, gamma: float | None = None) -> None:
        if season_length < 2:
            raise PredictionError(
                f"season_length must be >= 2, got {season_length}"
            )
        self.season_length = season_length
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self._state: _HWState | None = None

    # ---- fitting ----------------------------------------------------------

    def fit(self, series: np.ndarray) -> "HoltWinters":
        """Initialise state from ``series`` and tune smoothing constants.

        Raises:
            PredictionError: if the series is shorter than two seasons.
        """
        series = np.asarray(series, dtype=float)
        if series.size < 2 * self.season_length:
            raise PredictionError(
                f"need at least two seasons ({2 * self.season_length} points), "
                f"got {series.size}"
            )
        if self.alpha is None or self.beta is None or self.gamma is None:
            self.alpha, self.beta, self.gamma = self._grid_search(series)
        self._state = self._run(series, self.alpha, self.beta, self.gamma)[1]
        return self

    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (alpha, beta, gamma) combos in nested-loop order.

        A constant given to the constructor is a single-point axis.
        """
        axes = [grid if fixed is None else (fixed,)
                for fixed, grid in ((self.alpha, GRID_ALPHA),
                                    (self.beta, GRID_BETA),
                                    (self.gamma, GRID_GAMMA))]
        alpha, beta, gamma = np.meshgrid(*axes, indexing="ij")
        return alpha.ravel(), beta.ravel(), gamma.ravel()

    def _grid_sse(self, series: np.ndarray, alpha: np.ndarray,
                  beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """SSE of :meth:`_run` for every combo, in one smoothing pass.

        The loop only records each step's forecast; the errors are taken
        afterwards and summed in time order by ``np.add.accumulate``,
        which adds sequentially as the scalar pass does.
        """
        init = self._initial_state(series)
        level = np.full(alpha.size, init.level)
        trend = np.full(alpha.size, init.trend)
        season = np.repeat(init.season[:, None], alpha.size, axis=1)
        keep_alpha, keep_beta, keep_gamma = 1 - alpha, 1 - beta, 1 - gamma
        forecasts = np.empty((series.size, alpha.size))
        # Row p of ``season`` is phase p's seasonal state, updated in place.
        phases = list(season) * (series.size // self.season_length + 1)
        for value, seasonal, forecast in zip(series.tolist(), phases,
                                             forecasts):
            base = level + trend
            np.add(base, seasonal, out=forecast)
            new_level = alpha * (value - seasonal) + keep_alpha * base
            trend = beta * (new_level - level) + keep_beta * trend
            # IEEE addition commutes, so this is _run's seasonal update.
            seasonal *= keep_gamma
            seasonal += gamma * (value - new_level)
            level = new_level
        errors = series[:, None] - forecasts
        errors *= errors
        return np.add.accumulate(errors, axis=0)[-1]

    def _grid_search(self, series: np.ndarray) -> tuple[float, float, float]:
        """The combo with the least SSE; the first one on ties.

        Matches a nested (alpha, beta, gamma) loop keeping the first
        strict minimum: NaN SSEs never win, and when no SSE is finite
        the free constants fall back to :data:`FALLBACK`.
        """
        alpha, beta, gamma = self._grid()
        sse = self._grid_sse(series, alpha, beta, gamma)
        best = int(np.argmin(np.where(np.isnan(sse), np.inf, sse)))
        if not np.isfinite(sse[best]):
            return tuple(fallback if fixed is None else fixed
                         for fixed, fallback in zip(
                             (self.alpha, self.beta, self.gamma), FALLBACK))
        return float(alpha[best]), float(beta[best]), float(gamma[best])

    def _initial_state(self, series: np.ndarray) -> _HWState:
        m = self.season_length
        first_cycle = series[:m]
        second_cycle = series[m:2 * m]
        level = float(first_cycle.mean())
        trend = float((second_cycle.mean() - first_cycle.mean()) / m)
        cycles = series[: (series.size // m) * m].reshape(-1, m)
        season = cycles.mean(axis=0) - cycles.mean()
        return _HWState(level=level, trend=trend, season=season.copy(), index=0)

    def _run(self, series: np.ndarray, alpha: float, beta: float,
             gamma: float) -> tuple[float, _HWState]:
        """One smoothing pass; returns (sum of squared 1-step errors, state).

        The scalar reference for :meth:`_grid_sse`, and the pass that
        leaves :meth:`fit`'s final state.
        """
        state = self._initial_state(series)
        m = self.season_length
        sse = 0.0
        for value in series:
            phase = state.index % m
            forecast = state.level + state.trend + state.season[phase]
            error = value - forecast
            sse += error * error
            seasonal = state.season[phase]
            new_level = alpha * (value - seasonal) + (1 - alpha) * (
                state.level + state.trend)
            state.trend = beta * (new_level - state.level) + (1 - beta) * state.trend
            state.season[phase] = gamma * (value - new_level) + (1 - gamma) * seasonal
            state.level = new_level
            state.index += 1
        return sse, state

    # ---- forecasting --------------------------------------------------------

    def forecast_next(self) -> float:
        """One-step-ahead forecast from the current state.

        Raises:
            PredictionError: if :meth:`fit` has not run.
        """
        if self._state is None:
            raise PredictionError("forecast_next() before fit()")
        state = self._state
        phase = state.index % self.season_length
        return state.level + state.trend + state.season[phase]

    def update(self, value: float) -> None:
        """Fold one observed value into the state (walk-forward step).

        Raises:
            PredictionError: if :meth:`fit` has not run.
        """
        if self._state is None:
            raise PredictionError("update() before fit()")
        assert self.alpha is not None and self.beta is not None \
            and self.gamma is not None
        state = self._state
        phase = state.index % self.season_length
        seasonal = state.season[phase]
        new_level = (self.alpha * (value - seasonal)
                     + (1 - self.alpha) * (state.level + state.trend))
        state.trend = (self.beta * (new_level - state.level)
                       + (1 - self.beta) * state.trend)
        state.season[phase] = (self.gamma * (value - new_level)
                               + (1 - self.gamma) * seasonal)
        state.level = new_level
        state.index += 1

    def walk_forward(self, test_series: np.ndarray) -> np.ndarray:
        """One-step-ahead forecasts over ``test_series``.

        Each forecast uses only data observed before that step; the true
        value is then folded into the state, as a deployed predictor would.
        """
        test_series = np.asarray(test_series, dtype=float)
        forecasts = np.empty_like(test_series)
        for i, value in enumerate(test_series):
            forecasts[i] = self.forecast_next()
            self.update(float(value))
        return forecasts
