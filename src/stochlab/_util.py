"""Small numerical helpers: deterministic reductions, chunked maps, quadrature weights."""

from __future__ import annotations

import numpy as np


def pairwise_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along `axis` with a fixed binary-tree order.

    Each level adds adjacent pairs and carries an odd last entry up, so 5
    entries sum as ((a0 + a1) + (a2 + a3)) + a4. The order depends on the
    length alone: the result is bitwise independent of how the entries were
    produced (replica chunk size included).
    """
    a = np.asarray(a)
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype if a.dtype.kind == "f" else float)
    while n > 1:
        half = n // 2
        head = a[: 2 * half : 2] + a[1 : 2 * half : 2]
        if n % 2:
            a = np.concatenate([head, a[n - 1 : n]], axis=0)
        else:
            a = head
        n = a.shape[0]
    return a[0]


def periodic_shift(a: np.ndarray, shift: int, axis: int = -1) -> np.ndarray:
    """np.roll(a, shift, axis) for shift = +1 or -1 and a negative axis, as one
    slice-and-concatenate: the same values with one NumPy call."""
    tail = (slice(None),) * (-1 - axis)
    return np.concatenate((a[(..., slice(-shift, None)) + tail],
                           a[(..., slice(None, -shift)) + tail]), axis=axis)


def mean_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Deterministic Monte Carlo mean and standard error of a 1-d sample array."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    m = float(pairwise_sum(samples) / n)
    if n < 2:
        return m, float("inf")
    var = float(pairwise_sum((samples - m) ** 2) / (n - 1))
    return m, float(np.sqrt(var / n))


def max_y_gap(ys: np.ndarray, samples: np.ndarray) -> tuple[float, float]:
    """Weak gap max_Y |E[Y * samples]| over the columns Y of ys, with its stderr.

    Ties in |E| go to the later column.
    """
    best = (0.0, 0.0)
    for c in range(ys.shape[1]):
        mval, se = mean_and_stderr(ys[:, c] * samples)
        if abs(mval) >= best[0]:
            best = (abs(mval), se)
    return best


def map_chunks(fn, n_items: int, chunk: int) -> list:
    """Apply fn(lo, hi) over [0, n_items) in contiguous chunks of `chunk` items, in order.

    Chunking bounds the memory of one call; the results come back in index
    order, so downstream pairwise reductions see the same operand order for
    any chunk size.
    """
    return [fn(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def trapezoid_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid quadrature weights on a uniform grid of n_nodes points."""
    w = np.full(n_nodes, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def log_log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_on_intervals(fn, a, b) -> np.ndarray:
    """24-point Gauss-Legendre quadrature of fn over [a, b], vectorised over b.

    `a` is scalar, `b` an array; returns an array of b's shape. Exact to
    machine precision for the smooth integrands used in the kinetic pairings.
    """
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = mid[..., None] + half[..., None] * _GAUSS_NODES
    vals = fn(nodes)
    return half * np.einsum("...q,q->...", vals, _GAUSS_WEIGHTS)
