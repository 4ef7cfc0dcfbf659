"""Left-point stochastic integration on the grid and its exact discrete identities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import mean_and_stderr
from .errors import ConfigurationError, GridMismatchError, PredictabilityError
from .processes import AdaptedProcess
from .wiener import ReplicaDraw, TimeGrid, WienerPath


def ito_integral(V: AdaptedProcess, W: WienerPath, upto: int | None = None):
    """Left-point sum  sum_{j < upto} V(t_j) dW_j.

    Scalar processes need a 1-d driver and return a float; matrix (m x k)
    processes contract against the k increments and return a length-m vector.
    Rejecting integrands whose tag reads future randomness is the module's
    core safety contract.
    """
    if V.grid != W.grid:
        raise GridMismatchError("integrand and driver use different time grids")
    if not V.tag.predictable:
        raise PredictabilityError(
            f"integrand reads {V.tag.lookahead} node(s) ahead of its evaluation node")
    n = V.grid.steps
    if upto is None:
        upto = n
    if not 0 <= upto <= n:
        raise ConfigurationError(f"upto must lie in [0, {n}], got {upto}")
    dW = W.increments[:upto]
    if V.kind == "scalar":
        if W.dimension != 1:
            raise GridMismatchError("scalar integrand needs a 1-d driver")
        return float(np.dot(V.values[:upto], dW[:, 0]))
    if V.kind == "matrix":
        if V.values.shape[2] != W.dimension:
            raise GridMismatchError("integrand columns must match the driver dimension")
        return np.einsum("jmk,jk->m", V.values[:upto], dW)
    raise ConfigurationError("field processes must be paired down before integration")


def discrete_ito_identity_residual(W: WienerPath, component: int = 0) -> float:
    """Relative residual of  sum W dW = (W_T^2 - sum dW^2) / 2  on one path.

    The identity is algebraic (expand the square), so it holds at machine
    precision for every path.
    """
    w = W.values[:, component]
    dw = np.diff(w)
    lhs = np.dot(w[:-1], dw)
    rhs = 0.5 * (w[-1] ** 2 - np.dot(dw, dw))
    scale = max(1.0, abs(rhs))
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class IsometryReport:
    lhs: float          # E |int V dW|^2
    rhs: float          # E int |V|^2 dt
    z_score: float      # of lhs - rhs under the empirical paired stderr
    lhs_stderr: float
    samples: int


def isometry_residual(make_V: Callable[[ReplicaDraw], AdaptedProcess],
                      grid: TimeGrid, k: int, seed: int, samples: int) -> IsometryReport:
    """Monte Carlo check of E |int_0^T V dW|^2 = E int_0^T |V|^2 dt.

    The z-score is computed on the per-replica differences, which removes the
    common variance of the two estimates for random integrands.
    """
    if samples < 100:
        raise ConfigurationError("fewer than 100 samples makes the z-score meaningless")
    dt = grid.dt
    sq = np.empty(samples)
    quad = np.empty(samples)
    for r in range(samples):
        draw = ReplicaDraw.sample(grid, k, seed, r)
        V = make_V(draw)
        I = ito_integral(V, draw.W)
        sq[r] = I ** 2 if V.kind == "scalar" else float(np.dot(I, I))
        quad[r] = float(np.sum(V.node_magnitude() ** 2) * dt)
    lhs, lhs_se = mean_and_stderr(sq)
    rhs, _ = mean_and_stderr(quad)
    diff_mean, diff_se = mean_and_stderr(sq - quad)
    z = diff_mean / diff_se if diff_se > 0 else 0.0
    return IsometryReport(lhs, rhs, z, lhs_se, samples)
