"""Left-point stochastic integration on the grid and its exact discrete identities."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GridMismatchError, PredictabilityError
from .processes import AdaptedProcess
from .wiener import PathBatch, WienerPath


def _check_integrand(V: AdaptedProcess, W):
    if V.grid != W.grid:
        raise GridMismatchError("integrand and driver use different time grids")
    if not V.tag.predictable:
        raise PredictabilityError(
            f"integrand reads {V.tag.lookahead} node(s) ahead of its evaluation node")


def ito_integral(V: AdaptedProcess, W: WienerPath, upto: int | None = None):
    """Left-point sum  sum_{j < upto} V(t_j) dW_j.

    Scalar processes need a 1-d driver and return a float; matrix (m x k)
    processes contract against the k increments and return a length-m vector.
    Rejecting integrands whose tag reads future randomness is the module's
    core safety contract.
    """
    _check_integrand(V, W)
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


def discrete_ito_identity_residual(W: WienerPath) -> float:
    """Relative residual of  sum W dW = (W_T^2 - sum dW^2) / 2  on one path's first component.

    The identity is algebraic (expand the square), so it holds at machine
    precision for every path.
    """
    w = W.values[:, 0]
    dw = np.diff(w)
    lhs = np.dot(w[:-1], dw)
    rhs = 0.5 * (w[-1] ** 2 - np.dot(dw, dw))
    scale = max(1.0, abs(rhs))
    return abs(lhs - rhs) / scale


def batch_ito_integral(V: AdaptedProcess, W: PathBatch) -> np.ndarray:
    """ito_integral over the whole grid for every replica of a batch, shape (replicas, m).

    V may carry a leading replica axis; without it, it is the same integrand
    for every replica. Row r equals ito_integral on replica r's path bit for
    bit: the scalar sums go through matmul on (1 x N_t)(N_t x 1) blocks,
    which takes np.dot's inner product, and the matrix contraction is the
    per-path einsum with a replica index.
    """
    _check_integrand(V, W)
    dW = W.increments
    if V.kind == "scalar":
        if dW.shape[2] != 1:
            raise GridMismatchError("scalar integrand needs a 1-d driver")
        v = np.broadcast_to(V.values, dW.shape[:2])
        return np.matmul(v[:, None, :], dW)[:, 0]
    if V.kind == "matrix":
        if V.values.shape[-1] != dW.shape[2]:
            raise GridMismatchError("integrand columns must match the driver dimension")
        return np.einsum("rjmk,rjk->rm" if V.batched else "jmk,rjk->rm", V.values, dW)
    raise ConfigurationError("field processes must be paired down before integration")
