"""Seasonality strength of a usage series (Wang/Smith/Hyndman [92]).

§4.4 explains the edge's predictability by its stronger seasonality
(NEP mean 0.42 vs Azure 0.26).  The strength metric decomposes a series
into trend + seasonal + remainder and reports::

    strength = max(0, 1 - Var(remainder) / Var(seasonal + remainder))

using a centred-moving-average trend and phase-mean seasonal component —
the classical decomposition the characteristic-based clustering paper
builds on.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictionError


def _centered_moving_average(series: np.ndarray, period: int) -> np.ndarray:
    """Classical 2xm centred moving average trend estimate."""
    kernel = np.ones(period) / period
    if period % 2 == 0:
        # Even period: average two shifted m-MAs to centre the window.
        kernel = np.convolve(np.ones(period) / period, np.ones(2) / 2)
    pad = kernel.size // 2
    padded = np.pad(series, pad_width=pad, mode="edge")
    trend = np.convolve(padded, kernel, mode="valid")
    return trend[: series.size]


def decompose(series: np.ndarray, period: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical additive decomposition into (trend, seasonal, remainder).

    Raises:
        PredictionError: if the series is shorter than two periods.
    """
    series = np.asarray(series, dtype=float)
    if period < 2:
        raise PredictionError(f"period must be >= 2, got {period}")
    if series.size < 2 * period:
        raise PredictionError(
            f"need at least two periods ({2 * period} points), "
            f"got {series.size}"
        )
    trend = _centered_moving_average(series, period)
    detrended = series - trend
    # The strided slice picks phase p's points in order, as a boolean
    # mask would, in O(n) for all phases instead of O(period x n).
    seasonal_means = np.array([
        detrended[p::period].mean() for p in range(period)
    ])
    seasonal_means -= seasonal_means.mean()
    seasonal = seasonal_means[np.arange(series.size) % period]
    remainder = detrended - seasonal
    return trend, seasonal, remainder


def seasonality_strength(series: np.ndarray, period: int) -> float:
    """Seasonal strength in [0, 1]; 0 for a constant or aperiodic series."""
    _, seasonal, remainder = decompose(series, period)
    denom = float(np.var(seasonal + remainder))
    if denom == 0.0:
        return 0.0
    strength = 1.0 - float(np.var(remainder)) / denom
    return float(np.clip(strength, 0.0, 1.0))
