"""Predictable integrand processes, duality pairings, and the test variables of the weak-mode statistics.

An AdaptedProcess holds left-node values only (nodes t_0 .. t_{N_t-1}): the
value at node j is the one multiplying the increment W(t_{j+1}) - W(t_j) in a
left-point stochastic sum. Each process carries a dependency tag recording
which randomness its values may read (omega_0, W, B) and the worst node
lookahead; predictability is the mechanical check lookahead <= 0.

Shapes: "scalar" (N_t,), "matrix" (N_t, m, k), "field" (N_t, N_x, k). Fields
are cell values of an R^k-valued function on the periodic unit interval;
pairing against a test function reduces a field to a 1 x k matrix process by
torus quadrature (equal-weight sum times the cell size). Values may carry a
leading replica axis, one row per replica of a ReplicaBatch; a process
without it is the same for every replica.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._util import pairwise_sum
from .errors import ConfigurationError, GridMismatchError
from .wiener import TimeGrid, WienerPath, STREAM_W, STREAM_B

_STREAM_SOURCE = {STREAM_W: "W", STREAM_B: "B"}


@dataclass(frozen=True)
class DependencyTag:
    """Which randomness a process reads, and how far ahead of its node."""

    sources: frozenset = frozenset()
    lookahead: int = 0

    @staticmethod
    def deterministic() -> "DependencyTag":
        return DependencyTag(frozenset(), 0)

    @staticmethod
    def initial() -> "DependencyTag":
        return DependencyTag(frozenset({"omega0"}), 0)

    def merge(self, other: "DependencyTag") -> "DependencyTag":
        return DependencyTag(self.sources | other.sources,
                             max(self.lookahead, other.lookahead))

    @property
    def predictable(self) -> bool:
        return self.lookahead <= 0


@dataclass(frozen=True)
class AdaptedProcess:
    """Grid-sampled process with left-node values and a dependency tag."""

    grid: TimeGrid
    values: np.ndarray
    kind: str = "scalar"  # "scalar" | "matrix" | "field"
    tag: DependencyTag = DependencyTag.deterministic()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.kind == "scalar":
            if v.ndim not in (1, 2) or v.shape[-1] != self.grid.steps:
                raise ConfigurationError(
                    f"scalar process needs shape ([replicas,] {self.grid.steps}), got {v.shape}")
        elif self.kind in ("matrix", "field"):
            if v.ndim not in (3, 4) or v.shape[-3] != self.grid.steps:
                raise ConfigurationError(
                    f"{self.kind} process needs shape ([replicas,] N_t, ., .), got {v.shape}")
        else:
            raise ConfigurationError(f"unknown process kind {self.kind!r}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("process values must be finite")
        object.__setattr__(self, "values", v)

    # --- constructors -------------------------------------------------

    @staticmethod
    def deterministic(grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "AdaptedProcess":
        """Deterministic scalar process t |-> fn(t), sampled at left nodes."""
        vals = np.asarray(fn(grid.left_nodes), dtype=float)
        return AdaptedProcess(grid, vals, "scalar", DependencyTag.deterministic())

    @staticmethod
    def from_path_nodes(W: WienerPath, transform=None, node_offset: int = 0,
                        component: int = 0) -> "AdaptedProcess":
        """Scalar process V(t_j) = transform(W(t_{j+node_offset})).

        node_offset = 0 is the left-point (predictable) sampling; positive
        offsets read future nodes and are flagged by the tag.
        """
        n = W.grid.steps
        idx = np.arange(n) + node_offset
        if idx[-1] > n or idx[0] < 0:
            raise ConfigurationError("node offset walks off the grid")
        samples = W.values[idx, component]
        vals = samples if transform is None else np.asarray(transform(samples), dtype=float)
        src = _STREAM_SOURCE.get(W.stream, "W")
        return AdaptedProcess(W.grid, vals, "scalar",
                              DependencyTag(frozenset({src}), max(node_offset, 0)))

    @staticmethod
    def constant_matrix(grid: TimeGrid, matrix: np.ndarray,
                        tag: DependencyTag = DependencyTag.deterministic()) -> "AdaptedProcess":
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        vals = np.broadcast_to(m, (grid.steps, *m.shape)).copy()
        return AdaptedProcess(grid, vals, "matrix", tag)

    # --- algebra (tags merge, predictability propagates) ----------------

    def _check_compatible(self, other: "AdaptedProcess"):
        if self.grid != other.grid:
            raise GridMismatchError("processes live on different time grids")
        if self.kind != other.kind or self.values.shape != other.values.shape:
            raise GridMismatchError("processes have different shapes")

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._check_compatible(other)
        return AdaptedProcess(self.grid, self.values + other.values, self.kind,
                              self.tag.merge(other.tag))

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._check_compatible(other)
        return AdaptedProcess(self.grid, self.values - other.values, self.kind,
                              self.tag.merge(other.tag))

    def __mul__(self, c: float) -> "AdaptedProcess":
        return AdaptedProcess(self.grid, self.values * float(c), self.kind, self.tag)

    __rmul__ = __mul__

    def with_values(self, values: np.ndarray) -> "AdaptedProcess":
        return replace(self, values=np.asarray(values, dtype=float))

    @property
    def batched(self) -> bool:
        """True when the values carry a leading replica axis."""
        return self.values.ndim == (2 if self.kind == "scalar" else 4)

    # --- pointwise magnitudes used by the norms --------------------------

    def node_magnitude(self) -> np.ndarray:
        """|V(t_j)| per node: Euclidean for scalar/matrix, spatial L^1 for fields."""
        if self.kind == "scalar":
            return np.abs(self.values)
        if self.kind == "matrix":
            return np.sqrt(np.sum(self.values ** 2, axis=(-2, -1)))
        n_x = self.values.shape[-2]
        point = np.sqrt(np.sum(self.values ** 2, axis=-1))
        return pairwise_sum(point, axis=-1) / n_x


@dataclass(frozen=True)
class TestFunction:
    """Smooth periodic test function on the unit torus with derivatives to order 2.

    Derivative arrays must agree with spectral differentiation of the nodal
    values to 1e-8; they are computed spectrally when not supplied.
    """

    x: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        for name in ("x", "values", "d1", "d2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.shape == self.values.shape == self.d1.shape == self.d2.shape):
            raise ConfigurationError("test function arrays must share one shape")
        s1 = spectral_derivative(self.values, 1)
        s2 = spectral_derivative(self.values, 2)
        scale = max(1.0, float(np.max(np.abs(self.d1))), float(np.max(np.abs(self.d2))))
        if np.max(np.abs(self.d1 - s1)) > 1e-8 * scale or np.max(np.abs(self.d2 - s2)) > 1e-8 * scale:
            raise ConfigurationError("derivative arrays inconsistent with spectral differentiation")

    @property
    def cells(self) -> int:
        return self.x.size

    @staticmethod
    def from_callable(n_cells: int, fn, dfn=None, d2fn=None) -> "TestFunction":
        x = np.arange(n_cells) / n_cells
        vals = np.asarray(fn(x), dtype=float) * np.ones_like(x)
        d1 = np.asarray(dfn(x), dtype=float) * np.ones_like(x) if dfn else spectral_derivative(vals, 1)
        d2 = np.asarray(d2fn(x), dtype=float) * np.ones_like(x) if d2fn else spectral_derivative(vals, 2)
        return TestFunction(x, vals, d1, d2)

    @staticmethod
    def one(n_cells: int) -> "TestFunction":
        return TestFunction.from_callable(n_cells, lambda x: np.ones_like(x),
                                          lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))


def spectral_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """FFT differentiation of a periodic nodal array on the unit torus."""
    n = values.size
    freq = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    coef = np.fft.rfft(values) * freq ** order
    if order % 2 == 1 and n % 2 == 0:
        coef[-1] = 0.0  # Nyquist mode has no meaningful odd derivative
    return np.fft.irfft(coef, n=n)


def spectral_prolong(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of periodic nodal values onto a refined grid."""
    n = values.size
    coef = np.fft.rfft(values)
    if n % 2 == 0:
        coef[-1] *= 0.5  # split the Nyquist mode symmetrically
    return np.fft.irfft(coef, n=n * factor) * factor


@dataclass(frozen=True)
class ExponentSet:
    """Integrability exponent p > 2 with its two conjugates."""

    p: float

    def __post_init__(self):
        if self.p <= 2:
            raise ConfigurationError(f"p must exceed 2, got {self.p}")
        if abs(1 / self.p + 1 / self.p_prime - 1.0) > 1e-12:
            raise ConfigurationError("Holder conjugacy identity failed")
        if abs(2 / self.p + 1 / self.p_dprime - 1.0) > 1e-12:
            raise ConfigurationError("p/2 conjugacy identity failed")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def p_dprime(self) -> float:
        return self.p / (self.p - 2.0)


@dataclass(frozen=True)
class Ensemble:
    """A replica set: seeds index streams, replicas index independent draws."""

    seed: int
    replicas: int

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigurationError("ensemble needs at least one replica")


def pair(beta: TestFunction, V: AdaptedProcess) -> AdaptedProcess:
    """Duality pairing of a field process with a test function.

    Returns the 1 x k matrix process t |-> integral of beta(x) V(t, x) dx by
    the equal-weight torus rule; the dependency tag is preserved.
    """
    if V.kind != "field":
        raise ConfigurationError("pair needs a field-shaped process")
    if V.values.shape[-2] != beta.cells:
        raise GridMismatchError("test function and field use different spatial grids")
    dx = 1.0 / beta.cells
    paired = pairwise_sum(beta.values[:, None] * V.values, axis=-2) * dx
    return AdaptedProcess(V.grid, paired[..., None, :], "matrix", V.tag)


TEST_VARIABLES = ("one", "W_T", "W_T^2-T", "sin_omega0", "cos_omega0", "W_T/2")


def _test_variable_matrix(omega0: np.ndarray, w_final: np.ndarray,
                          w_half: np.ndarray, horizon: float) -> np.ndarray:
    """The finite Y in L^2(Omega) surrogate family for weak-mode statistics.

    Columns follow TEST_VARIABLES: one, W_T, W_T^2 - T, sin/cos(2 pi omega0),
    W_{T/2}, one row per replica. Each variable is normalised to unit
    L^2(Omega) norm so weak-mode gaps are dominated by strong-mode statistics
    (Cauchy-Schwarz). The family is an engineering surrogate for the full
    dual space.
    """
    T = horizon
    return np.stack([
        np.ones_like(omega0),
        w_final / np.sqrt(T),
        (w_final ** 2 - T) / (np.sqrt(2.0) * T),
        np.sqrt(2.0) * np.sin(2 * np.pi * omega0),
        np.sqrt(2.0) * np.cos(2 * np.pi * omega0),
        w_half / np.sqrt(T / 2.0),
    ], axis=1)


def _test_variables(batch) -> np.ndarray:
    """_test_variable_matrix of a wiener.ReplicaBatch, W_T and W_{T/2} read off its nodes."""
    grid, w = batch.grid, batch.W.values[:, :, 0]
    return _test_variable_matrix(batch.omega0, w[:, -1],
                                 w[:, grid.node_index(grid.horizon / 2.0)], grid.horizon)
