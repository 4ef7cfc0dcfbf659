"""One-sided temporal smoothing operator, its reflection, and their derivative calculus.

The base kernel is the standard smooth bump exp(-1/(u(1-u))) normalised to
unit mass on (0, 1); the scaled kernel of width rho is rho^{-1} R(t/rho).
Support in the open interval makes the kernel and all its derivatives vanish
at 0 and at rho, so the derivative identities hold without boundary terms.

Discrete operators use the global trapezoid weights of the time grid inside
the convolution sums. With that matched quadrature the duality identities

    <Kf, g> = <f, K~g>        and        <d(Kf), g> = -<f, d(K~g)>

hold at machine precision (the two double sums are literally equal), while
the operators converge to the continuum integrals superalgebraically once
the kernel is resolved (rho a few tens of grid steps wide). Widths below
4 grid steps are rejected as unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import trapezoid_weights
from .errors import ConfigurationError
from .wiener import TimeGrid

_NORMALISATION_CACHE: dict[int, float] = {}


def bump(u: np.ndarray) -> np.ndarray:
    """Unnormalised C-infinity bump supported in the open interval (0, 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    g = u[inside] * (1.0 - u[inside])
    out[inside] = np.exp(-1.0 / g)
    return out


def bump_derivative(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    v = u[inside]
    g = v * (1.0 - v)
    out[inside] = np.exp(-1.0 / g) * (1.0 - 2.0 * v) / (g * g)
    return out


def _normalisation(resolution: int) -> float:
    if resolution not in _NORMALISATION_CACHE:
        u = np.linspace(0.0, 1.0, resolution + 1)
        _NORMALISATION_CACHE[resolution] = float(np.trapezoid(bump(u), u))
    return _NORMALISATION_CACHE[resolution]


@dataclass(frozen=True)
class MollifierKernel:
    """Causal unit-mass kernel of width rho."""

    rho: float
    resolution: int = 8192
    _mass_constant: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigurationError(f"kernel width must be positive, got {self.rho}")
        if self.resolution < 256:
            raise ConfigurationError("kernel quadrature resolution too coarse")
        z = _normalisation(self.resolution)
        object.__setattr__(self, "_mass_constant", z)
        if abs(self.mass_up_to(self.rho) - 1.0) > 1e-8:
            raise ConfigurationError("kernel failed the unit-mass check")

    def density(self, t: np.ndarray) -> np.ndarray:
        """R_rho(t) = rho^{-1} R(t / rho)."""
        return bump(np.asarray(t, dtype=float) / self.rho) / (self.rho * self._mass_constant)

    def density_derivative(self, t: np.ndarray) -> np.ndarray:
        return bump_derivative(np.asarray(t, dtype=float) / self.rho) / (self.rho ** 2 * self._mass_constant)

    def mass_up_to(self, delta: float) -> float:
        """int_0^delta R_rho(t) dt by the kernel's own fine quadrature."""
        top = min(max(delta / self.rho, 0.0), 1.0)
        u = np.linspace(0.0, top, self.resolution + 1)
        return float(np.trapezoid(bump(u), u)) / self._mass_constant

    def derivative_l1(self, grid: TimeGrid) -> float:
        """||d/dt R_rho||_{L^1}, the smoothing-payoff constant C(rho)."""
        taps = self._taps(grid, derivative=True)
        return float(np.sum(np.abs(taps)) * grid.dt)

    def _taps(self, grid: TimeGrid, derivative: bool = False) -> np.ndarray:
        if self.rho < 4.0 * grid.dt - 1e-12:
            raise ConfigurationError(
                f"kernel width {self.rho} unresolved: needs at least 4 grid steps of {grid.dt}")
        lags = np.arange(int(np.ceil(self.rho / grid.dt)) + 1) * grid.dt
        return self.density_derivative(lags) if derivative else self.density(lags)


def _causal_apply(taps: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    n = weighted.size
    return np.convolve(weighted, taps)[:n]


def _anticausal_apply(taps: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    n = weighted.size
    return np.convolve(weighted[::-1], taps)[:n][::-1]


def mollify(kernel: MollifierKernel, grid: TimeGrid, f: np.ndarray) -> np.ndarray:
    """Causal smoothing  (Kf)(t_j) ~ int_0^{t_j} R_rho(t_j - s) f(s) ds.

    Input and output live on the full node set (N_t + 1 values); the output
    at t depends only on f on [0, t].
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.steps + 1,):
        raise ConfigurationError(f"grid function needs {grid.steps + 1} nodes, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ConfigurationError("grid function must be finite")
    w = trapezoid_weights(grid.steps + 1, grid.dt)
    return _causal_apply(kernel._taps(grid), w * f)


def adjoint_mollify(kernel: MollifierKernel, grid: TimeGrid, g: np.ndarray) -> np.ndarray:
    """Anti-causal mirror  (K~g)(s) ~ int_s^T R_rho(t - s) g(t) dt."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.steps + 1,):
        raise ConfigurationError(f"grid function needs {grid.steps + 1} nodes, got {g.shape}")
    w = trapezoid_weights(grid.steps + 1, grid.dt)
    return _anticausal_apply(kernel._taps(grid), w * g)


def mollify_derivative(kernel: MollifierKernel, grid: TimeGrid, f: np.ndarray) -> np.ndarray:
    """d/dt of the smoothed function, via the analytically differentiated kernel."""
    f = np.asarray(f, dtype=float)
    w = trapezoid_weights(grid.steps + 1, grid.dt)
    return _causal_apply(kernel._taps(grid, derivative=True), w * f)


def adjoint_mollify_derivative(kernel: MollifierKernel, grid: TimeGrid, g: np.ndarray) -> np.ndarray:
    """d/ds of the reflected smoothing; pairs with mollify_derivative with a sign flip."""
    g = np.asarray(g, dtype=float)
    w = trapezoid_weights(grid.steps + 1, grid.dt)
    return -_anticausal_apply(kernel._taps(grid, derivative=True), w * g)


def time_inner(grid: TimeGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Trapezoid inner product on the node set; matches the operator quadrature."""
    w = trapezoid_weights(grid.steps + 1, grid.dt)
    return float(np.sum(w * u * v))


def mollify_left_nodes(kernel: MollifierKernel, grid: TimeGrid, left_values: np.ndarray) -> np.ndarray:
    """Smooth left-node step processes; returns left-node values.

    The last axis is time; leading axes (replicas) are smoothed row by row
    with the kernel's taps computed once. The step process is extended
    constantly to the final node; that value never enters the output at left
    nodes (causality), it only pads shapes.
    """
    left_values = np.asarray(left_values, dtype=float)
    if left_values.shape[-1] != grid.steps:
        raise ConfigurationError(f"left-node values need {grid.steps} entries, got {left_values.shape}")
    if not np.all(np.isfinite(left_values)):
        raise ConfigurationError("grid function must be finite")
    full = np.concatenate([left_values, left_values[..., -1:]], axis=-1)
    weighted = trapezoid_weights(grid.steps + 1, grid.dt) * full
    taps = kernel._taps(grid)
    rows = weighted.reshape(-1, grid.steps + 1)
    out = np.stack([_causal_apply(taps, row) for row in rows])
    return out.reshape(full.shape)[..., :-1]
