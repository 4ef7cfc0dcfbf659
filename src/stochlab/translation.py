"""Mean-L^1 temporal translation modulus and its fitted rate in the lag.

The modulus of an ensemble of paths F is the Monte Carlo average of the grid
quadrature of |F(t) - F(t - h)| over [h, T]. Uniform smallness of this
quantity as h -> 0, uniformly along a family index n, is the hypothesis the
convergence experiments hinge on; the power-law fit in h is the measurable
surrogate (slope 1/2 for martingale-driven pairings, with a slack threshold
0.4 to absorb finite-sample noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import pairwise_sum, trapezoid_weights
from .errors import ConfigurationError
from .wiener import TimeGrid

EXACT_SLOPE = math.inf  # sentinel for degenerate (all-zero) moduli

_DEGENERATE = 1e-12


@dataclass(frozen=True)
class ModulusValue:
    h: float
    value: float
    snapped: bool = False  # lag was not grid-aligned and got snapped down


def translation_modulus(paths: np.ndarray, grid: TimeGrid, h: float) -> ModulusValue:
    """E int_h^T |F(t) - F(t-h)| dt for an ensemble of node-sampled paths.

    `paths` has shape (replicas, N_t + 1) or (replicas, N_t + 1, k); vector
    paths are reduced with the Euclidean norm. Lags off the grid are snapped
    down to the nearest multiple of dt and flagged.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim == 2:
        paths = paths[:, :, None]
    if paths.ndim != 3 or paths.shape[1] != grid.steps + 1:
        raise ConfigurationError(f"paths must be (replicas, {grid.steps + 1}[, k])")
    if not (0.0 < h < grid.horizon):
        raise ConfigurationError(f"lag must lie in (0, T), got {h}")
    lag = int(np.floor(h / grid.dt + 1e-9))
    snapped = abs(lag * grid.dt - h) > 1e-9 * grid.horizon
    if lag < 1:
        raise ConfigurationError(f"lag {h} snaps below one grid step")
    diff = paths[:, lag:, :] - paths[:, :-lag, :]
    mag = np.sqrt(np.sum(diff * diff, axis=2))
    w = trapezoid_weights(grid.steps + 1 - lag, grid.dt)
    per_replica = mag @ w
    value = float(pairwise_sum(per_replica) / paths.shape[0])
    return ModulusValue(lag * grid.dt, value, snapped)


@dataclass(frozen=True)
class TranslationRateFit:
    """Per-family slopes and the max/min-over-n uniformity ratio per lag."""

    lags: np.ndarray
    moduli: dict = field(default_factory=dict)     # n -> array of modulus values
    slopes: dict = field(default_factory=dict)     # n -> fitted slope (or EXACT_SLOPE)
    uniform_ratio: np.ndarray = field(default=None)  # max/min over n per lag

    def worst_slope(self) -> float:
        finite = [s for s in self.slopes.values() if s != EXACT_SLOPE]
        return min(finite) if finite else EXACT_SLOPE


def fit_translation_rate(ensembles: dict[int, np.ndarray], grid: TimeGrid,
                         lags: list[float]) -> TranslationRateFit:
    """Least-squares log-log slope per family index, and the max/min modulus ratio over n per lag.

    Needs at least 4 lags spanning at least 3 octaves. Degenerate families
    whose moduli all sit below 1e-12 report the 'exact' sentinel rather than
    a meaningless fit.
    """
    lags = sorted(float(h) for h in lags)
    if len(lags) < 4:
        raise ConfigurationError("need at least 4 lags for a rate fit")
    if lags[-1] / lags[0] < 8.0 - 1e-9:
        raise ConfigurationError("lags must span at least 3 octaves")
    moduli: dict[int, np.ndarray] = {}
    slopes: dict[int, float] = {}
    snapped_lags = None
    for n, paths in ensembles.items():
        vals = [translation_modulus(paths, grid, h) for h in lags]
        if snapped_lags is None:
            snapped_lags = np.array([v.h for v in vals])
        m = np.array([v.value for v in vals])
        moduli[n] = m
        if np.all(m < _DEGENERATE):
            slopes[n] = EXACT_SLOPE
        else:
            slopes[n] = float(np.polyfit(np.log(snapped_lags), np.log(np.maximum(m, 1e-300)), 1)[0])
    table = np.vstack([moduli[n] for n in sorted(moduli)])
    floor = np.maximum(table.min(axis=0), 1e-300)
    return TranslationRateFit(snapped_lags, moduli, slopes, table.max(axis=0) / floor)


def standard_lag_ladder(grid: TimeGrid, finest: int = 8, coarsest: int = 3) -> list[float]:
    """Geometric lags T * 2^{-finest} .. T * 2^{-coarsest}."""
    return [grid.horizon * 2.0 ** (-e) for e in range(finest, coarsest - 1, -1)]
