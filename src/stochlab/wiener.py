"""Brownian paths on uniform time grids and coupled sequences converging uniformly.

Conventions
-----------
A path is sampled at the grid nodes t_j = j*T/N_t, j = 0..N_t, with W(0) = 0
and independent N(0, dt) increments per component. Every path is a pure
function of (seed, replica, stream, grid, k): regenerating with the same
inputs yields bit-identical values. Streams are counter-based (Philox keyed
by a SeedSequence spawn key), so replicas are order-independent and safe to
generate in parallel. A ReplicaBatch holds the draws of a contiguous range of
replicas as arrays with a leading replica axis; ReplicaDraw is the
one-replica view of the same numbers.

Coupled sequences W_n are built from two independent paths W and B as

    W_n = (W + a_n B) / sqrt(1 + a_n^2),

which is again a standard Wiener path in law for every mixing coefficient
a_n, and converges to W uniformly on [0, T] pathwise as a_n -> 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError

# Stream roles. Keeping B and the initial randomness on separate counters
# makes couple()'s independence precondition checkable.
STREAM_W = 0
STREAM_B = 1
STREAM_INITIAL = 2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N_t steps (N_t + 1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def left_nodes(self) -> np.ndarray:
        return np.arange(self.steps) * self.dt

    def node_index(self, t: float) -> int:
        """Largest node index j with t_j <= t."""
        return min(int(np.floor(t / self.dt + 1e-12)), self.steps)


@dataclass(frozen=True)
class WienerPath:
    """A k-dimensional Brownian path sampled at the grid nodes."""

    grid: TimeGrid
    dimension: int
    values: np.ndarray  # shape (N_t + 1, k)
    seed: int = 0
    replica: int = 0
    stream: int = STREAM_W
    derived: bool = False  # True for coupled/aggregated paths
    _increments: np.ndarray | None = None  # exact sampled increments, when known

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.steps + 1, self.dimension):
            raise ConfigurationError(
                f"values shape {v.shape} != {(self.grid.steps + 1, self.dimension)}"
            )
        if np.any(v[0] != 0.0):
            raise ConfigurationError("Wiener path must start at 0 exactly")
        object.__setattr__(self, "values", v)

    @property
    def increments(self) -> np.ndarray:
        if self._increments is not None:
            return self._increments
        return np.diff(self.values, axis=0)

    def at(self, t: float) -> np.ndarray:
        return self.values[self.grid.node_index(t)]

    def final(self) -> np.ndarray:
        return self.values[-1]


def stream_generator(seed: int, replica: int, stream: int = STREAM_W) -> np.random.Generator:
    """Counter-based generator for one (seed, replica, stream) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, replica))
    return np.random.Generator(np.random.Philox(ss))


def initial_randomness(seed: int, replica: int) -> np.random.Generator:
    """Generator for F_0-measurable draws (omega_0 uniforms, initial normals)."""
    return stream_generator(seed, replica, STREAM_INITIAL)


def sample_wiener(
    grid: TimeGrid, k: int, seed: int, replica: int, stream: int = STREAM_W
) -> WienerPath:
    """Sample a standard k-dimensional Wiener path on the grid."""
    if k < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {k}")
    gen = stream_generator(seed, replica, stream)
    dW = gen.standard_normal((grid.steps, k)) * np.sqrt(grid.dt)
    values = np.vstack([np.zeros((1, k)), np.cumsum(dW, axis=0)])
    return WienerPath(grid, k, values, seed=seed, replica=replica, stream=stream,
                      _increments=dW)


def increment_chunk(
    grid: TimeGrid, k: int, seed: int, lo: int, hi: int, stream: int = STREAM_W
) -> np.ndarray:
    """Increments for replicas lo..hi-1, shape (hi - lo, N_t, k).

    Row r - lo is bit-identical to sample_wiener(grid, k, seed, r, stream).increments.
    """
    out = np.empty((hi - lo, grid.steps, k))
    sqdt = np.sqrt(grid.dt)
    for r in range(lo, hi):
        gen = stream_generator(seed, r, stream)
        out[r - lo] = gen.standard_normal((grid.steps, k)) * sqdt
    return out


def initial_chunk(seed: int, lo: int, hi: int, n_normals: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """omega_0 uniforms and F_0 normals for replicas lo..hi-1.

    Draw order matches ReplicaDraw.sample, so chunked experiments see the
    exact same initial randomness as per-replica ones.
    """
    omega0 = np.empty(hi - lo)
    normals = np.empty((hi - lo, n_normals))
    for r in range(lo, hi):
        gen = initial_randomness(seed, r)
        omega0[r - lo] = gen.uniform()
        normals[r - lo] = gen.standard_normal(n_normals)
    return omega0, normals


def couple(W: WienerPath, B: WienerPath, a: float) -> WienerPath:
    """Mix W with an independent auxiliary path: (W + a*B)/sqrt(1 + a^2)."""
    if W.grid != B.grid:
        raise GridMismatchError("coupled paths must share the time grid")
    if W.dimension != B.dimension:
        raise GridMismatchError("coupled paths must share the dimension")
    if a < 0:
        raise ConfigurationError(f"mixing coefficient must be >= 0, got {a}")
    if a > 0 and (W.seed, W.replica, W.stream) == (B.seed, B.replica, B.stream):
        raise ConfigurationError("W and B must come from different streams")
    if a == 0.0:
        return W
    scale = 1.0 / np.sqrt(1.0 + a * a)
    dW = (W.increments + a * B.increments) * scale
    values = np.vstack([np.zeros((1, W.dimension)), np.cumsum(dW, axis=0)])
    return WienerPath(
        W.grid, W.dimension, values, seed=W.seed, replica=W.replica,
        stream=W.stream, derived=True, _increments=dW,
    )


def sup_distance(W1: WienerPath, W2: WienerPath) -> float:
    """Max over grid nodes of the Euclidean distance between the two paths."""
    if W1.grid != W2.grid:
        raise GridMismatchError("sup_distance needs a shared time grid")
    if W1.dimension != W2.dimension:
        raise GridMismatchError("sup_distance needs a shared dimension")
    diff = W1.values - W2.values
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=1))))


def aggregate_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Coarse-grid increments as sums of groups of `factor` fine increments.

    fine has shape (..., N_t, k); leading axes (replicas) are kept. The coarse
    path is the fine path restricted to every factor-th node, i.e. the same
    Brownian realization viewed on a coarser grid.
    """
    *lead, n, k = fine.shape
    if n % factor:
        raise ConfigurationError(f"{n} fine steps not divisible by {factor}")
    return fine.reshape(*lead, n // factor, factor, k).sum(axis=-2)


@dataclass(frozen=True)
class CouplingSchedule:
    """Mixing coefficients a_n decreasing to 0; 'identity' means W_n = W."""

    kind: str = "inverse_n"  # "inverse_n" | "identity"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("inverse_n", "identity"):
            raise ConfigurationError(f"unknown coupling kind {self.kind!r}")
        if self.scale <= 0:
            raise ConfigurationError("coupling scale must be positive")

    def coefficient(self, n: int) -> float:
        if n < 1:
            raise ConfigurationError(f"sequence index must be >= 1, got {n}")
        if self.kind == "identity":
            return 0.0
        return self.scale / n

    def coupled(self, W: WienerPath, B: WienerPath, n: int) -> WienerPath:
        a = self.coefficient(n)
        return W if a == 0.0 else couple(W, B, a)


@dataclass
class ReplicaDraw:
    """All the randomness one replica may read: omega_0, W, B.

    omega_0 is a uniform [0,1) draw and `normals` a bank of F_0-measurable
    standard normals, both from the initial-randomness stream.
    """

    seed: int
    replica: int
    W: WienerPath
    B: WienerPath
    omega0: float
    normals: np.ndarray = field(repr=False)

    @classmethod
    def sample(cls, grid: TimeGrid, k: int, seed: int, replica: int,
               n_normals: int = 4) -> "ReplicaDraw":
        gen = initial_randomness(seed, replica)
        omega0 = float(gen.uniform())
        normals = gen.standard_normal(n_normals)
        W = sample_wiener(grid, k, seed, replica, STREAM_W)
        B = sample_wiener(grid, k, seed, replica, STREAM_B)
        return cls(seed, replica, W, B, omega0, normals)


class PathBatch:
    """Paths of a replica batch on one grid, drawn on first read.

    `increments` has shape (replicas, N_t, k); `values` (replicas, N_t + 1, k)
    holds the node values, row by row the cumulative sums WienerPath keeps.
    """

    def __init__(self, grid: TimeGrid, draw):
        self.grid = grid
        self._draw = draw

    @cached_property
    def increments(self) -> np.ndarray:
        return self._draw()

    @cached_property
    def values(self) -> np.ndarray:
        dW = self.increments
        return np.concatenate([np.zeros((dW.shape[0], 1, dW.shape[2])),
                               np.cumsum(dW, axis=1)], axis=1)


class ReplicaBatch:
    """The randomness of replicas lo..hi-1, as arrays with a leading replica axis.

    omega0 and normals (one initial_chunk), the increments of W and B
    (increment_chunk on streams W and B) and the node values are drawn on
    first read, so a caller that reads nothing draws nothing. Row r - lo of
    each array equals what ReplicaDraw.sample(grid, k, seed, r) holds.
    """

    def __init__(self, grid: TimeGrid, k: int, seed: int, lo: int, hi: int):
        self.grid, self.k, self.seed, self.lo, self.hi = grid, k, seed, lo, hi
        self._initial = cache(lambda: initial_chunk(seed, lo, hi))
        self.W = PathBatch(grid, lambda: increment_chunk(grid, k, seed, lo, hi, STREAM_W))
        self.B = PathBatch(grid, lambda: increment_chunk(grid, k, seed, lo, hi, STREAM_B))

    def __len__(self) -> int:
        return self.hi - self.lo

    @property
    def omega0(self) -> np.ndarray:
        return self._initial()[0]

    @property
    def normals(self) -> np.ndarray:
        return self._initial()[1]

    def head(self, m: int) -> "ReplicaBatch":
        """Replicas lo..lo+m-1, reading (and drawing) through this batch."""
        if m == len(self):
            return self
        part = copy.copy(self)
        part.hi = self.lo + m
        part._initial = cache(lambda: tuple(a[:m] for a in self._initial()))
        part.W = PathBatch(self.grid, lambda: self.W.increments[:m])
        part.B = PathBatch(self.grid, lambda: self.B.increments[:m])
        return part

    def on(self, grid: TimeGrid) -> "ReplicaBatch":
        """The same replicas on a coarser grid whose nodes are nodes of this one.

        The increments of W and B are block sums of this batch's
        (aggregate_increments), drawn through it; omega0 and normals are shared.
        """
        if grid == self.grid:
            return self
        if grid.horizon != self.grid.horizon or self.grid.steps % grid.steps:
            raise GridMismatchError(f"{grid.steps} steps do not divide {self.grid.steps}")
        factor = self.grid.steps // grid.steps
        view = copy.copy(self)
        view.grid = grid
        view.W = PathBatch(grid, lambda: aggregate_increments(self.W.increments, factor))
        view.B = PathBatch(grid, lambda: aggregate_increments(self.B.increments, factor))
        return view

    def coupled(self, schedule: CouplingSchedule, n: int) -> PathBatch:
        """W_n = (W + a_n B) / sqrt(1 + a_n^2), increment by increment as couple() mixes."""
        a = schedule.coefficient(n)
        if a == 0.0:
            return self.W
        scale = 1.0 / np.sqrt(1.0 + a * a)
        return PathBatch(self.grid, lambda: (self.W.increments + a * self.B.increments) * scale)
