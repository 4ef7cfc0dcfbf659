"""Empirical verification of stochastic-integral convergence along coupled drivers.

The objects of study are the differences

    I(n) = int_0^T <beta, V_n> dW_n  -  int_0^T <beta, V> dW

along families of integrands V_n and coupled drivers W_n. Two statistics are
measured: the weak-mode gap max_Y |E[Y I(n)]| over a finite test-variable
family, and the strong-mode second moment E|I(n)|^2. The smoothing split

    I(n) = I_1(rho, n) + I_2(n, rho) + I_3(rho)

(raw-minus-smoothed under W_n, smoothed difference, smoothed-minus-raw under
W) is reproduced as a diagnostic, and the two analytically pinned
counterexamples are simulated exactly: the omega-and-time sine family whose
second moment stays at 1/4, and the shrinking spike whose integral is a
standard normal for every n.

Statistics are read off one pass over the replicas (run_pass): chunks of
_CHUNK replicas, each a ReplicaBatch whose randomness is drawn once, with the
n ladder as the inner loop and the integrand families acting on arrays with a
leading replica axis. Every per-replica value equals, bit for bit, the one a
ReplicaDraw of that replica gives.

The module measures only. No convergence rate is guaranteed in general, so
every "gap decreasing" verdict is an engineering threshold (fitted log-log
slope <= -0.3 along the ladder, or last-to-first ratio <= 1/3), and cli.py
declares each threshold once and judges the statistics against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import map_chunks, max_y_gap, mean_and_stderr, pairwise_sum
from .errors import ConfigurationError
from .ito import batch_ito_integral
from .mollify import MollifierKernel, mollify_left_nodes
from .processes import (TEST_VARIABLES, AdaptedProcess, DependencyTag, Ensemble,
                        TestFunction, _test_variables, pair)
from .wiener import CouplingSchedule, ReplicaBatch, TimeGrid

ProcessFamily = Callable[[ReplicaBatch, int], AdaptedProcess]
ProcessLimit = Callable[[ReplicaBatch], AdaptedProcess]

# Replicas per chunk of every pass: bounds the arrays of one batch, each of
# shape (_CHUNK, N_t), whatever the sample count. On the benchmark's Monte
# Carlo workload chunks of 64 to 256 cost the same CPU time, and 64 keeps the
# peak RSS within about a MiB of drawing one replica at a time.
_CHUNK = 64


@dataclass(frozen=True)
class GapEntry:
    n: int
    statistic: float
    stderr: float
    mode: str
    per_y: dict = field(default_factory=dict)


@dataclass
class ConvergenceReport:
    """Per-n statistics of a gap ladder."""

    mode: str
    entries: list[GapEntry] = field(default_factory=list)


# ----------------------------------------------------------------------
# standard integrand families (one row per replica of the batch)
# ----------------------------------------------------------------------

def weak_omega_family(base: Callable[[np.ndarray], np.ndarray],
                      g: Callable[[np.ndarray], np.ndarray]) -> ProcessFamily:
    """V_n = base(t) + sin(2 pi n omega_0) g(t): weakly null in omega, smooth in t.

    The oscillating part pairs to zero against every fixed test variable by
    sine orthogonality, and its temporal translation modulus is uniform in n,
    so the gap decay is governed by the driver coupling alone.
    """
    def make(draw: ReplicaBatch, n: int) -> AdaptedProcess:
        t = draw.grid.left_nodes
        vals = base(t) + np.sin(2 * np.pi * n * draw.omega0)[:, None] * g(t)
        return AdaptedProcess(draw.grid, vals, "scalar", DependencyTag.initial())
    return make


def temporal_oscillation_family(amplitude_decay: float = 0.0) -> ProcessFamily:
    """V_n = n^{-decay} sin(2 pi n t) Z: oscillates in time, Z an F_0 normal.

    With decay 0 the family violates the uniform translation estimate and the
    integrals do not converge (the necessity control); with decay 1/2 the
    translation estimate is restored and the strong statistic falls like 1/n.
    """
    def make(draw: ReplicaBatch, n: int) -> AdaptedProcess:
        t = draw.grid.left_nodes
        vals = n ** (-amplitude_decay) * np.sin(2 * np.pi * n * t) * draw.normals[:, :1]
        return AdaptedProcess(draw.grid, vals, "scalar", DependencyTag.initial())
    return make


def zero_limit(draw: ReplicaBatch) -> AdaptedProcess:
    return AdaptedProcess(draw.grid, np.zeros(draw.grid.steps), "scalar",
                          DependencyTag.deterministic())


def spatial_oscillation_family(x_cells: int,
                               v: Callable[[np.ndarray, np.ndarray], np.ndarray],
                               k: int = 1) -> ProcessFamily:
    """Field family V_n(t, x) = v(t, x) (1 + sin(2 pi n x)) on the unit torus."""
    x = np.arange(x_cells) / x_cells

    def make(draw: ReplicaBatch, n: int) -> AdaptedProcess:
        t = draw.grid.left_nodes
        base = v(t[:, None], x[None, :])
        vals = base * (1.0 + np.sin(2 * np.pi * n * x))[None, :]
        return AdaptedProcess(draw.grid, np.repeat(vals[:, :, None], k, axis=2),
                              "field", DependencyTag.deterministic())
    return make


# ----------------------------------------------------------------------
# one pass over the replicas, many statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Statistic:
    """A Monte Carlo statistic over the replicas of `ensemble`.

    sample(batch) returns a dict of per-replica arrays (leading replica axis)
    for one chunk; finish(samples) reduces each array joined over the chunks
    in replica order.
    """

    ensemble: Ensemble
    sample: Callable[[ReplicaBatch], dict]
    finish: Callable[[dict], object]


def run_pass(grid: TimeGrid, k: int, *statistics: Statistic) -> list:
    """Evaluate statistics in one pass over their replicas, _CHUNK at a time.

    Each chunk is one ReplicaBatch, so its randomness is drawn at most once
    for all statistics; a statistic over fewer replicas reads the first ones
    of each chunk. Returns the finished statistics in order.
    """
    seed = statistics[0].ensemble.seed
    if any(s.ensemble.seed != seed for s in statistics):
        raise ConfigurationError("statistics of one pass must share the seed")

    def chunk(lo, hi):
        batch = ReplicaBatch(grid, k, seed, lo, hi)
        return [s.sample(batch.head(min(hi, s.ensemble.replicas) - lo))
                if s.ensemble.replicas > lo else None for s in statistics]

    parts = map_chunks(chunk, max(s.ensemble.replicas for s in statistics), chunk=_CHUNK)
    results = []
    for i, stat in enumerate(statistics):
        chunks = [p[i] for p in parts if p[i] is not None]
        results.append(stat.finish({key: np.concatenate([c[key] for c in chunks])
                                    for key in chunks[0]}))
    return results


def _reuse_deterministic(family):
    """The family, but a process that reads no randomness (empty tag sources,
    no replica axis) is built once per n and reused by every chunk."""
    built = {}

    def make(batch, *n):
        if n in built:
            return built[n]
        V = family(batch, *n)
        if not V.tag.sources and not V.batched:
            built[n] = V
        return V
    return make


def _l2_in_time(process: AdaptedProcess, values: np.ndarray, replicas: int) -> np.ndarray:
    """int |values|^2 dt per replica (left-node rule), broadcast to every replica."""
    node_dims = 1 if process.kind == "scalar" else 3
    squares = values ** 2
    lead = squares.shape[:squares.ndim - node_dims]
    return np.broadcast_to(np.sum(squares.reshape(*lead, -1), axis=-1) * process.grid.dt,
                           (replicas,))


# ----------------------------------------------------------------------
# gap statistics
# ----------------------------------------------------------------------

def _difference_samples(batch: ReplicaBatch, Vn_of: ProcessFamily, V_of: ProcessLimit,
                        schedule: CouplingSchedule, n_values: list[int]) -> dict:
    """I(n) samples of one chunk for every n, shape (replicas, m); the limit term is integrated once."""
    i_lim = batch_ito_integral(V_of(batch), batch.W)
    return {n: batch_ito_integral(Vn_of(batch, n), batch.coupled(schedule, n)) - i_lim
            for n in n_values}


def _gap_entry(n: int, i_samples: np.ndarray, y_samples, mode: str) -> GapEntry:
    if mode == "strong":
        stat, se = mean_and_stderr(np.sum(i_samples ** 2, axis=1))
        return GapEntry(n, stat, se, mode)
    # weak convergence in R^m is componentwise: gap over components and Y
    per_y = {}
    best = (0.0, 0.0)
    for i, name in enumerate(TEST_VARIABLES):
        for c in range(i_samples.shape[1]):
            m, se = mean_and_stderr(y_samples[:, i] * i_samples[:, c])
            key = name if i_samples.shape[1] == 1 else f"{name}[{c}]"
            per_y[key] = (m, se)
            if abs(m) >= abs(best[0]):
                best = (m, se)
    return GapEntry(n, abs(best[0]), best[1], mode, per_y)


def scan_statistic(Vn_of: ProcessFamily, V_of: ProcessLimit, schedule: CouplingSchedule,
                   n_values: list[int], ensemble: Ensemble, mode: str = "weak") -> Statistic:
    """The gap ladder: weak-mode max_Y |E[Y I(n)]| or strong-mode E|I(n)|^2 per n."""
    if mode not in ("weak", "strong"):
        raise ConfigurationError(f"mode must be weak or strong, got {mode!r}")
    Vn_of, V_of = _reuse_deterministic(Vn_of), _reuse_deterministic(V_of)

    def sample(batch):
        out = _difference_samples(batch, Vn_of, V_of, schedule, n_values)
        if mode == "weak":
            out["y"] = _test_variables(batch)
        return out

    def finish(s):
        entries = [_gap_entry(n, s[n], s.get("y"), mode) for n in n_values]
        return ConvergenceReport(mode=mode, entries=entries)
    return Statistic(ensemble, sample, finish)


def integral_gap(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                 schedule: CouplingSchedule, n: int, ensemble: Ensemble,
                 mode: str = "weak") -> GapEntry:
    """One ladder entry: weak-mode max_Y |E[Y I(n)]| or strong-mode E|I(n)|^2."""
    return convergence_scan(grid, k, Vn_of, V_of, schedule, [n], ensemble, mode).entries[0]


def convergence_scan(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                     schedule: CouplingSchedule, n_values: list[int],
                     ensemble: Ensemble, mode: str = "weak") -> ConvergenceReport:
    return run_pass(grid, k, scan_statistic(Vn_of, V_of, schedule, n_values, ensemble, mode))[0]


def control_statistic(grid: TimeGrid, schedule: CouplingSchedule, n_values: list[int],
                      ensemble: Ensemble) -> Statistic:
    """Negative control: the time-oscillating family keeps E|I(n)|^2 at T/2 E Z^2.

    Finishes as the entries, the floor (T/2) E-hat Z^2, and True when every
    entry stays above floor - 3 stderr, i.e. the translation hypothesis is
    shown to be genuinely necessary.
    """
    scan = scan_statistic(temporal_oscillation_family(0.0), zero_limit, schedule,
                          n_values, ensemble, "strong")

    def sample(batch):
        # float_power is libm's pow, the rounding a per-replica scalar ** 2 had
        return {**scan.sample(batch), "z_sq": np.float_power(batch.normals[:, 0], 2.0)}

    def finish(s):
        floor = 0.5 * grid.horizon * float(pairwise_sum(s["z_sq"]) / ensemble.replicas)
        entries = scan.finish(s).entries
        return entries, floor, all(e.statistic >= floor - 3.0 * e.stderr for e in entries)
    return Statistic(ensemble, sample, finish)


def necessity_control(grid: TimeGrid, schedule: CouplingSchedule, n_values: list[int],
                      ensemble: Ensemble) -> tuple[list[GapEntry], float, bool]:
    return run_pass(grid, 1, control_statistic(grid, schedule, n_values, ensemble))[0]


def distance_statistic(Vn_of: ProcessFamily, V_of: ProcessLimit, n_values: list[int],
                       ensemble: Ensemble) -> Statistic:
    """E int |V_n - V|^2 dt per n, with its stderr: the strong-(omega, t) pairing distance.

    For families with a.s. weak convergence plus a uniform translation
    modulus this decreases along n, the 'very close to strong compactness'
    behaviour the strong-mode corollaries predict.
    """
    Vn_of, V_of = _reuse_deterministic(Vn_of), _reuse_deterministic(V_of)

    def sample(batch):
        V = V_of(batch)
        return {n: _l2_in_time(V, Vn_of(batch, n).values - V.values, len(batch))
                for n in n_values}

    def finish(s):
        return {n: mean_and_stderr(s[n]) for n in n_values}
    return Statistic(ensemble, sample, finish)


def pairing_l2_distance(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                        n: int, ensemble: Ensemble) -> tuple[float, float]:
    return run_pass(grid, k, distance_statistic(Vn_of, V_of, [n], ensemble))[0][n]


# ----------------------------------------------------------------------
# smoothing decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """Monte Carlo view of the three-way smoothing split at one (rho, n)."""

    rho: float
    n: int
    i1_second_moment: float
    i1_stderr: float
    i3_second_moment: float
    i3_stderr: float
    i2_gap: float
    i2_gap_stderr: float
    total_gap: float
    total_gap_stderr: float
    samples: int
    i2_second_moment: float = 0.0
    i2_sm_stderr: float = 0.0
    total_second_moment: float = 0.0
    total_sm_stderr: float = 0.0
    subterm_means: dict = field(default_factory=dict)

    def triangle_consistent(self) -> bool:
        """total gap <= gap(I_2) + sqrt(E I_1^2) + sqrt(E I_3^2) + 3 stderr."""
        slack = 3.0 * (self.total_gap_stderr + self.i2_gap_stderr
                       + self.i1_stderr + self.i3_stderr)
        bound = (self.i2_gap + np.sqrt(max(self.i1_second_moment, 0.0))
                 + np.sqrt(max(self.i3_second_moment, 0.0)) + slack)
        return self.total_gap <= bound

    def cauchy_schwarz_consistent(self) -> bool:
        """E|I|^2 <= 3 (E I_1^2 + E|I_2|^2 + E I_3^2) + 9 stderr."""
        slack = 9.0 * (self.total_sm_stderr + self.i1_stderr
                       + self.i2_sm_stderr + self.i3_stderr)
        bound = 3.0 * (self.i1_second_moment + self.i2_second_moment
                       + self.i3_second_moment) + slack
        return self.total_second_moment <= bound


def split_statistic(Vn_of: ProcessFamily, V_of: ProcessLimit, schedule: CouplingSchedule,
                    cases: list[tuple[int, float]], ensemble: Ensemble,
                    subterms: bool = False) -> Statistic:
    """The smoothing split at each (n, rho) of cases; finishes as one DecompositionReport per case.

    E I_1^2 and E I_3^2 come from the isometry, I_2 is simulated directly
    (smoothed integrand under W_n minus under W), and the weak gaps of I_2
    and I(n) run over the test variables. The four integration-by-parts
    sub-terms are an optional diagnostic and agree with the direct I_2 only
    up to time-quadrature error.
    """
    kernels = {rho: MollifierKernel(rho) for _, rho in cases}
    Vn_of, V_of = _reuse_deterministic(Vn_of), _reuse_deterministic(V_of)

    def sample(batch):
        if batch.k != 1:
            raise ConfigurationError("the decomposition diagnostic is scalar-valued")
        grid, R = batch.grid, len(batch)
        V = V_of(batch)
        out = {"y": _test_variables(batch)}
        limit_integral = batch_ito_integral(V, batch.W)[:, 0]
        smoothed = {}
        for rho, kernel in kernels.items():
            s = V.with_values(mollify_left_nodes(kernel, grid, V.values))
            smoothed[rho] = s, batch_ito_integral(s, batch.W)[:, 0]
            out["i3", rho] = _l2_in_time(V, V.values - s.values, R)
        for n in dict.fromkeys(n for n, _ in cases):
            Vn = Vn_of(batch, n)
            Wn = batch.coupled(schedule, n)
            out["total", n] = batch_ito_integral(Vn, Wn)[:, 0] - limit_integral
            for rho in (r for m, r in cases if m == n):
                sn = Vn.with_values(mollify_left_nodes(kernels[rho], grid, Vn.values))
                s, s_integral = smoothed[rho]
                out["i1", n, rho] = _l2_in_time(Vn, Vn.values - sn.values, R)
                out["i2", n, rho] = batch_ito_integral(sn, Wn)[:, 0] - s_integral
                if subterms:
                    vn = np.broadcast_to(Vn.values, (R, grid.steps))
                    v = np.broadcast_to(V.values, (R, grid.steps))
                    out["sub", n, rho] = np.array([
                        _i2_subterms(kernels[rho], grid, vn[r], v[r],
                                     Wn.values[r, :, 0], batch.W.values[r, :, 0])
                        for r in range(R)])
        return out

    def finish(s):
        reports = []
        for n, rho in cases:
            i1_m, i1_se = mean_and_stderr(s["i1", n, rho])
            i3_m, i3_se = mean_and_stderr(s["i3", rho])
            i2, total = s["i2", n, rho], s["total", n]
            i2_gap, i2_se = max_y_gap(s["y"], i2)
            tot_gap, tot_se = max_y_gap(s["y"], total)
            i2_sm, i2_sm_se = mean_and_stderr(i2 ** 2)
            tot_sm, tot_sm_se = mean_and_stderr(total ** 2)
            means = {}
            if subterms:
                names = ("i2_1", "i2_2", "i2_3", "i2_4")
                means = dict(zip(names, s["sub", n, rho].sum(axis=0) / ensemble.replicas))
            reports.append(DecompositionReport(
                rho, n, i1_m, i1_se, i3_m, i3_se, i2_gap, i2_se, tot_gap, tot_se,
                ensemble.replicas, i2_sm, i2_sm_se, tot_sm, tot_sm_se, means))
        return reports
    return Statistic(ensemble, sample, finish)


def decompose(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
              schedule: CouplingSchedule, n: int, rho: float, ensemble: Ensemble,
              subterms: bool = False) -> DecompositionReport:
    """The smoothing split at one (n, rho); see split_statistic."""
    return run_pass(grid, k, split_statistic(Vn_of, V_of, schedule, [(n, rho)], ensemble,
                                             subterms))[0][0]


def _i2_subterms(kernel: MollifierKernel, grid: TimeGrid, vn: np.ndarray,
                 v: np.ndarray, wn: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The four integration-by-parts pieces of I_2 on one path, by time quadrature.

    vn and v are left-node integrand values, wn and w the node values of W_n
    and W. Smoothed integrands have zero quadratic variation, so I_2 splits
    into a derivative-against-path term, two boundary terms, and two
    driver-gap terms; the sum reproduces the direct I_2 up to O(dt)
    quadrature error.
    """
    from .mollify import mollify, mollify_derivative

    dt = grid.dt
    full_n = np.append(vn, vn[-1])
    full = np.append(v, v[-1])
    d_n = mollify_derivative(kernel, grid, full_n)
    d = mollify_derivative(kernel, grid, full)
    s_n = mollify(kernel, grid, full_n)
    s = mollify(kernel, grid, full)
    i21 = -np.sum((d_n - d) * wn) * dt
    i22 = (s_n[-1] - s[-1]) * wn[-1]
    i23 = np.sum(d * (w - wn)) * dt
    i24 = s[-1] * (wn[-1] - w[-1])
    return np.array([i21, i22, i23, i24])


def rho_sweep(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
              schedule: CouplingSchedule, n: int, rhos: list[float],
              ensemble: Ensemble) -> list[DecompositionReport]:
    return run_pass(grid, k, split_statistic(Vn_of, V_of, schedule,
                                             [(n, rho) for rho in rhos], ensemble))[0]


# ----------------------------------------------------------------------
# the two counterexamples (analytically pinned statistics)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SineCounterexampleReport:
    n: int
    second_moment: float     # pinned at 1/4
    stderr: float
    samples: int
    pairings: dict           # dual name -> (mean, stderr), all compatible with 0


@dataclass(frozen=True)
class SpikeCounterexampleReport:
    n: int
    variance: float          # pinned at 1 (integral distributed as W_n(1))
    variance_stderr: float
    mean: float
    mean_stderr: float
    tail_fraction: float     # P(|I| > 1.96), ~0.05 under normality
    l2_norm_sq: float        # exactly 1 by construction
    linear_pairing: float    # int f_n t dt, closed form 1/(2 n^{3/2})
    samples: int


def sine_statistic(n: int, ensemble: Ensemble, grid: TimeGrid,
                   schedule: CouplingSchedule | None = None) -> Statistic:
    """F_n = sin(2 pi n omega_0) sin(2 pi n t) on [0, 1], driven by W_n.

    The family is weakly null in every pairing, yet E |int F_n dW_n|^2 equals
    E int F_n^2 dt = 1/4 for every n: no uniform translation estimate, no
    convergence.
    """
    if abs(grid.horizon - 1.0) > 1e-12:
        raise ConfigurationError("the sine counterexample is normalised to T = 1")
    schedule = schedule or CouplingSchedule()
    t_left = grid.left_nodes
    t_mid = t_left + grid.dt / 2.0
    sin_t = np.sin(2 * np.pi * n * t_left)
    duals = {"one": np.ones_like(t_mid), "sin_2pit": np.sin(2 * np.pi * t_mid), "t": t_mid}

    def sample(batch):
        dWn = batch.coupled(schedule, n).increments[:, :, 0]
        f = np.sin(2 * np.pi * n * batch.omega0)[:, None] * sin_t[None, :]
        pair_cols = [np.sum(f * g[None, :], axis=1) * grid.dt for g in duals.values()]
        return {"sq": np.sum(f * dWn, axis=1) ** 2, "pairs": np.column_stack(pair_cols)}

    def finish(s):
        moment, se = mean_and_stderr(s["sq"])
        pairings = {name: mean_and_stderr(s["pairs"][:, i]) for i, name in enumerate(duals)}
        return SineCounterexampleReport(n, moment, se, ensemble.replicas, pairings)
    return Statistic(ensemble, sample, finish)


def spike_statistic(n: int, ensemble: Ensemble, grid: TimeGrid,
                    schedule: CouplingSchedule | None = None) -> Statistic:
    """f_n = sqrt(n) 1_{[0, 1/n)} on [0, 1]: the integral is sqrt(n) W_n(1/n).

    Brownian scaling makes it a standard normal for every n, although f_n is
    weakly null with unit L^2 norm: the p > 2 requirement is sharp.
    """
    if abs(grid.horizon - 1.0) > 1e-12:
        raise ConfigurationError("the spike counterexample is normalised to T = 1")
    if grid.steps < 8 * n:
        raise ConfigurationError(f"grid with {grid.steps} steps cannot resolve the 1/{n} spike")
    if grid.steps % n:
        raise ConfigurationError(f"spike width 1/{n} must be grid-aligned (steps % n == 0)")
    schedule = schedule or CouplingSchedule()
    j_spike = grid.steps // n
    root_n = np.sqrt(float(n))

    def sample(batch):
        dWn = batch.coupled(schedule, n).increments[:, :j_spike, 0]
        return {"integral": root_n * np.sum(dWn, axis=1)}

    def finish(s):
        integrals = s["integral"]
        mean, mean_se = mean_and_stderr(integrals)
        centred_sq = (integrals - mean) ** 2
        variance = float(pairwise_sum(centred_sq)) / (ensemble.replicas - 1)
        _, var_se = mean_and_stderr(centred_sq)
        tail = float(pairwise_sum((np.abs(integrals) > 1.96).astype(float)) / ensemble.replicas)
        # left-node rectangle rule is exact for the grid-aligned step function
        l2_sq = n * j_spike * grid.dt
        t_mid = grid.left_nodes[:j_spike] + grid.dt / 2.0
        linear_pairing = float(root_n * np.sum(t_mid) * grid.dt)
        return SpikeCounterexampleReport(n, variance, var_se, mean, mean_se, tail,
                                         l2_sq, linear_pairing, ensemble.replicas)
    return Statistic(ensemble, sample, finish)


def counterexample_sine(n: int, ensemble: Ensemble, grid: TimeGrid,
                        schedule: CouplingSchedule | None = None) -> SineCounterexampleReport:
    return run_pass(grid, 1, sine_statistic(n, ensemble, grid, schedule))[0]


def counterexample_spike(n: int, ensemble: Ensemble, grid: TimeGrid,
                         schedule: CouplingSchedule | None = None) -> SpikeCounterexampleReport:
    return run_pass(grid, 1, spike_statistic(n, ensemble, grid, schedule))[0]


# ----------------------------------------------------------------------
# spatially extended mode (L^1 torus integrands)
# ----------------------------------------------------------------------

@dataclass
class L1ModeReport:
    report: ConvergenceReport
    hypothesis_norms: dict = field(default_factory=dict)  # n -> E ||V_n||_{L^p_t L^1_x}^p


def _norm_statistic(Vn_field: ProcessFamily, n_values: list[int], p: float,
                    ensemble: Ensemble) -> Statistic:
    """E ||V_n||_{L^p_t L^1_x}^p per n."""
    Vn_field = _reuse_deterministic(Vn_field)

    def sample(batch):
        return {n: np.broadcast_to(
                    np.sum(Vn_field(batch, n).node_magnitude() ** p, axis=-1) * batch.grid.dt,
                    (len(batch),))
                for n in n_values}

    def finish(s):
        return {n: float(pairwise_sum(s[n]) / ensemble.replicas) for n in n_values}
    return Statistic(ensemble, sample, finish)


def l1_torus_mode(grid: TimeGrid, k: int, beta: TestFunction,
                  Vn_field: ProcessFamily, V_field: ProcessLimit,
                  schedule: CouplingSchedule, n_values: list[int],
                  ensemble: Ensemble, mode: str = "strong", p: float = 3.0) -> L1ModeReport:
    """Run the gap scan on paired-down field integrands, with the hypothesis
    norms that monitor the uniform L^p_t L^1_x bound the spatially-extended
    mode assumes (cli.py marks a run whose norms grow invalid)."""
    def paired_family(draw: ReplicaBatch, n: int) -> AdaptedProcess:
        return pair(beta, Vn_field(draw, n))

    def paired_limit(draw: ReplicaBatch) -> AdaptedProcess:
        return pair(beta, V_field(draw))

    # the bound is a monitor, not a statistic: 64 replicas probe it
    probe = Ensemble(ensemble.seed, min(ensemble.replicas, 64))
    return L1ModeReport(*run_pass(
        grid, k, scan_statistic(paired_family, paired_limit, schedule, n_values, ensemble, mode),
        _norm_statistic(Vn_field, n_values, p, probe)))
