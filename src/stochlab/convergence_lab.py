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

No convergence rate is guaranteed in general, so every "gap decreasing" verdict is an
engineering threshold: fitted log-log slope <= -0.3 along the ladder, or
last-to-first ratio <= 1/3, declared here and in the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import log_log_slope, map_chunks, max_y_gap, mean_and_stderr, pairwise_sum
from .errors import ConfigurationError
from .ito import ito_integral
from .mollify import MollifierKernel, mollify_left_nodes
from .processes import (AdaptedProcess, DependencyTag, Ensemble, TestFunction,
                        default_test_variables, pair)
from .wiener import (CouplingSchedule, ReplicaDraw, TimeGrid, increment_chunk,
                     initial_chunk)

SLOPE_THRESHOLD = -0.3
RATIO_THRESHOLD = 1.0 / 3.0

ProcessFamily = Callable[[ReplicaDraw, int], AdaptedProcess]
ProcessLimit = Callable[[ReplicaDraw], AdaptedProcess]


@dataclass(frozen=True)
class GapEntry:
    n: int
    statistic: float
    stderr: float
    mode: str
    per_y: dict = field(default_factory=dict)


@dataclass
class ConvergenceReport:
    """Per-n statistics with the declared-threshold verdict."""

    mode: str
    entries: list[GapEntry] = field(default_factory=list)
    slope: float | None = None
    verdict: bool | None = None
    threshold_note: str = f"slope <= {SLOPE_THRESHOLD} or max/min <= {RATIO_THRESHOLD:.4g} (engineering choice)"
    invalid: bool = False
    notes: list[str] = field(default_factory=list)

    def finalize(self) -> "ConvergenceReport":
        vals = np.array([max(e.statistic, 1e-300) for e in self.entries])
        ns = np.array([e.n for e in self.entries], dtype=float)
        if len(vals) >= 2:
            self.slope = log_log_slope(ns, vals)
            ratio = vals[-1] / vals[0]
            self.verdict = bool(self.slope <= SLOPE_THRESHOLD or ratio <= RATIO_THRESHOLD)
        return self


# ----------------------------------------------------------------------
# standard integrand families
# ----------------------------------------------------------------------

def weak_omega_family(base: Callable[[np.ndarray], np.ndarray],
                      g: Callable[[np.ndarray], np.ndarray]) -> ProcessFamily:
    """V_n = base(t) + sin(2 pi n omega_0) g(t): weakly null in omega, smooth in t.

    The oscillating part pairs to zero against every fixed test variable by
    sine orthogonality, and its temporal translation modulus is uniform in n,
    so the gap decay is governed by the driver coupling alone.
    """
    def make(draw: ReplicaDraw, n: int) -> AdaptedProcess:
        t = draw.W.grid.left_nodes
        vals = base(t) + np.sin(2 * np.pi * n * draw.omega0) * g(t)
        return AdaptedProcess(draw.W.grid, vals, "scalar", DependencyTag.initial())
    return make


def temporal_oscillation_family(amplitude_decay: float = 0.0) -> ProcessFamily:
    """V_n = n^{-decay} sin(2 pi n t) Z: oscillates in time, Z an F_0 normal.

    With decay 0 the family violates the uniform translation estimate and the
    integrals do not converge (the necessity control); with decay 1/2 the
    translation estimate is restored and the strong statistic falls like 1/n.
    """
    def make(draw: ReplicaDraw, n: int) -> AdaptedProcess:
        t = draw.W.grid.left_nodes
        z = draw.normals[0]
        vals = n ** (-amplitude_decay) * np.sin(2 * np.pi * n * t) * z
        return AdaptedProcess(draw.W.grid, vals, "scalar", DependencyTag.initial())
    return make


def zero_limit(draw: ReplicaDraw) -> AdaptedProcess:
    return AdaptedProcess(draw.W.grid, np.zeros(draw.W.grid.steps), "scalar",
                          DependencyTag.deterministic())


def spatial_oscillation_family(x_cells: int,
                               v: Callable[[np.ndarray, np.ndarray], np.ndarray],
                               k: int = 1) -> ProcessFamily:
    """Field family V_n(t, x) = v(t, x) (1 + sin(2 pi n x)) on the unit torus."""
    x = np.arange(x_cells) / x_cells

    def make(draw: ReplicaDraw, n: int) -> AdaptedProcess:
        t = draw.W.grid.left_nodes
        base = v(t[:, None], x[None, :])
        vals = base * (1.0 + np.sin(2 * np.pi * n * x))[None, :]
        return AdaptedProcess(draw.W.grid, np.repeat(vals[:, :, None], k, axis=2),
                              "field", DependencyTag.deterministic())
    return make


# ----------------------------------------------------------------------
# gap statistics
# ----------------------------------------------------------------------

def _difference_samples(grid: TimeGrid, k: int, Vn_of: ProcessFamily,
                        V_of: ProcessLimit, schedule: CouplingSchedule, n: int,
                        ensemble: Ensemble, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica I(n) samples, shape (replicas, m), and per-draw Y values."""
    i_samples = None
    y_samples = np.empty((ensemble.replicas, len(ys)))
    for r in range(ensemble.replicas):
        draw = ReplicaDraw.sample(grid, k, ensemble.seed, r)
        Wn = schedule.coupled(draw.W, draw.B, n)
        i_n = ito_integral(Vn_of(draw, n), Wn)
        i_lim = ito_integral(V_of(draw), draw.W)
        diff = np.atleast_1d(np.asarray(i_n - i_lim, dtype=float))
        if i_samples is None:
            i_samples = np.empty((ensemble.replicas, diff.size))
        i_samples[r] = diff
        y_samples[r] = [fn(draw) for _, fn in ys]
    return i_samples, y_samples


def integral_gap(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                 schedule: CouplingSchedule, n: int, ensemble: Ensemble,
                 mode: str = "weak", ys=None) -> GapEntry:
    """One ladder entry: weak-mode max_Y |E[Y I(n)]| or strong-mode E|I(n)|^2."""
    if mode not in ("weak", "strong"):
        raise ConfigurationError(f"mode must be weak or strong, got {mode!r}")
    ys = ys if ys is not None else default_test_variables(grid)
    i_samples, y_samples = _difference_samples(grid, k, Vn_of, V_of, schedule, n, ensemble, ys)
    if mode == "strong":
        stat, se = mean_and_stderr(np.sum(i_samples ** 2, axis=1))
        return GapEntry(n, stat, se, mode)
    # weak convergence in R^m is componentwise: gap over components and Y
    per_y = {}
    best = (0.0, 0.0)
    for i, (name, _) in enumerate(ys):
        for c in range(i_samples.shape[1]):
            m, se = mean_and_stderr(y_samples[:, i] * i_samples[:, c])
            key = name if i_samples.shape[1] == 1 else f"{name}[{c}]"
            per_y[key] = (m, se)
            if abs(m) >= abs(best[0]):
                best = (m, se)
    return GapEntry(n, abs(best[0]), best[1], mode, per_y)


def convergence_scan(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                     schedule: CouplingSchedule, n_values: list[int],
                     ensemble: Ensemble, mode: str = "weak", ys=None) -> ConvergenceReport:
    report = ConvergenceReport(mode=mode)
    for n in n_values:
        report.entries.append(
            integral_gap(grid, k, Vn_of, V_of, schedule, n, ensemble, mode, ys))
    return report.finalize()


def necessity_control(grid: TimeGrid, schedule: CouplingSchedule, n_values: list[int],
                      ensemble: Ensemble) -> tuple[list[GapEntry], float, bool]:
    """Negative control: the time-oscillating family keeps E|I(n)|^2 at T/2 E Z^2.

    Returns the entries, the floor (T/2) E-hat Z^2, and True when every entry
    stays above floor - 3 stderr, i.e. the translation hypothesis is shown to
    be genuinely necessary.
    """
    family = temporal_oscillation_family(0.0)
    entries = []
    z_sq = np.empty(ensemble.replicas)
    for r in range(ensemble.replicas):
        _, normals = initial_chunk(ensemble.seed, r, r + 1)
        z_sq[r] = normals[0, 0] ** 2
    floor = 0.5 * grid.horizon * float(pairwise_sum(z_sq) / ensemble.replicas)
    ok = True
    for n in n_values:
        entry = integral_gap(grid, 1, family, zero_limit, schedule, n, ensemble, "strong")
        entries.append(entry)
        ok = ok and (entry.statistic >= floor - 3.0 * entry.stderr)
    return entries, floor, ok


def pairing_l2_distance(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
                        n: int, ensemble: Ensemble) -> tuple[float, float]:
    """E int |V_n - V|^2 dt: the strong-(omega, t) pairing distance.

    For families with a.s. weak convergence plus a uniform translation
    modulus this decreases along n, the 'very close to strong compactness'
    behaviour the strong-mode corollaries predict.
    """
    dt = grid.dt
    vals = np.empty(ensemble.replicas)
    for r in range(ensemble.replicas):
        draw = ReplicaDraw.sample(grid, k, ensemble.seed, r)
        diff = Vn_of(draw, n).values - V_of(draw).values
        vals[r] = np.sum(diff ** 2) * dt
    return mean_and_stderr(vals)


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


def decompose(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
              schedule: CouplingSchedule, n: int, rho: float, ensemble: Ensemble,
              ys=None, subterms: bool = False) -> DecompositionReport:
    """Estimate E I_1^2, E I_3^2 (via the isometry) and the weak gaps of I_2 and I(n).

    I_2 is simulated directly (smoothed integrand under W_n minus under W);
    the four integration-by-parts sub-terms are an optional diagnostic and
    agree with the direct I_2 only up to time-quadrature error.
    """
    if k != 1:
        raise ConfigurationError("the decomposition diagnostic is scalar-valued")
    ys = ys if ys is not None else default_test_variables(grid)
    kernel = MollifierKernel(rho)
    dt = grid.dt
    R = ensemble.replicas
    i1_sq = np.empty(R)
    i3_sq = np.empty(R)
    i2 = np.empty(R)
    total = np.empty(R)
    yv = np.empty((R, len(ys)))
    sub_acc = np.zeros(4)
    for r in range(R):
        draw = ReplicaDraw.sample(grid, k, ensemble.seed, r)
        Wn = schedule.coupled(draw.W, draw.B, n)
        Vn = Vn_of(draw, n)
        V = V_of(draw)
        smoothed_n = mollify_left_nodes(kernel, grid, Vn.values)
        smoothed = mollify_left_nodes(kernel, grid, V.values)
        i1_sq[r] = np.sum((Vn.values - smoothed_n) ** 2) * dt
        i3_sq[r] = np.sum((V.values - smoothed) ** 2) * dt
        Rn = Vn.with_values(smoothed_n)
        Rlim = V.with_values(smoothed)
        i2[r] = ito_integral(Rn, Wn) - ito_integral(Rlim, draw.W)
        total[r] = ito_integral(Vn, Wn) - ito_integral(V, draw.W)
        yv[r] = [fn(draw) for _, fn in ys]
        if subterms:
            sub_acc += _i2_subterms(kernel, grid, Vn.values, V.values, Wn, draw.W)
    i1_m, i1_se = mean_and_stderr(i1_sq)
    i3_m, i3_se = mean_and_stderr(i3_sq)
    i2_gap, i2_se = max_y_gap(yv, i2)
    tot_gap, tot_se = max_y_gap(yv, total)
    i2_sm, i2_sm_se = mean_and_stderr(i2 ** 2)
    tot_sm, tot_sm_se = mean_and_stderr(total ** 2)
    means = {}
    if subterms:
        names = ("i2_1", "i2_2", "i2_3", "i2_4")
        means = dict(zip(names, sub_acc / R))
    return DecompositionReport(rho, n, i1_m, i1_se, i3_m, i3_se,
                               i2_gap, i2_se, tot_gap, tot_se, R,
                               i2_sm, i2_sm_se, tot_sm, tot_sm_se, means)


def _i2_subterms(kernel: MollifierKernel, grid: TimeGrid, vn: np.ndarray,
                 v: np.ndarray, Wn, W) -> np.ndarray:
    """The four integration-by-parts pieces of I_2, by time quadrature.

    Smoothed integrands have zero quadratic variation, so I_2 splits into a
    derivative-against-path term, two boundary terms, and two driver-gap
    terms; the sum reproduces the direct I_2 up to O(dt) quadrature error.
    """
    from .mollify import mollify, mollify_derivative

    dt = grid.dt
    full_n = np.append(vn, vn[-1])
    full = np.append(v, v[-1])
    d_n = mollify_derivative(kernel, grid, full_n)
    d = mollify_derivative(kernel, grid, full)
    s_n = mollify(kernel, grid, full_n)
    s = mollify(kernel, grid, full)
    wn = Wn.values[:, 0]
    w = W.values[:, 0]
    i21 = -np.sum((d_n - d) * wn) * dt
    i22 = (s_n[-1] - s[-1]) * wn[-1]
    i23 = np.sum(d * (w - wn)) * dt
    i24 = s[-1] * (wn[-1] - w[-1])
    return np.array([i21, i22, i23, i24])


def rho_sweep(grid: TimeGrid, k: int, Vn_of: ProcessFamily, V_of: ProcessLimit,
              schedule: CouplingSchedule, n: int, rhos: list[float],
              ensemble: Ensemble) -> list[DecompositionReport]:
    return [decompose(grid, k, Vn_of, V_of, schedule, n, rho, ensemble) for rho in rhos]


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


_CHUNK = 16384


def counterexample_sine(n: int, ensemble: Ensemble, grid: TimeGrid,
                        schedule: CouplingSchedule | None = None) -> SineCounterexampleReport:
    """F_n = sin(2 pi n omega_0) sin(2 pi n t) on [0, 1], driven by W_n.

    The family is weakly null in every pairing, yet E |int F_n dW_n|^2 equals
    E int F_n^2 dt = 1/4 for every n: no uniform translation estimate, no
    convergence.
    """
    if abs(grid.horizon - 1.0) > 1e-12:
        raise ConfigurationError("the sine counterexample is normalised to T = 1")
    schedule = schedule or CouplingSchedule()
    a = schedule.coefficient(n)
    scale = 1.0 / np.sqrt(1.0 + a * a)
    t_left = grid.left_nodes
    t_mid = t_left + grid.dt / 2.0
    sin_t = np.sin(2 * np.pi * n * t_left)
    duals = {"one": np.ones_like(t_mid), "sin_2pit": np.sin(2 * np.pi * t_mid), "t": t_mid}

    def chunk(lo, hi):
        omega0, _ = initial_chunk(ensemble.seed, lo, hi)
        dW = increment_chunk(grid, 1, ensemble.seed, lo, hi)[:, :, 0]
        if a > 0:
            dB = increment_chunk(grid, 1, ensemble.seed, lo, hi, stream=1)[:, :, 0]
            dWn = (dW + a * dB) * scale
        else:
            dWn = dW
        f = np.sin(2 * np.pi * n * omega0)[:, None] * sin_t[None, :]
        integrals = np.sum(f * dWn, axis=1)
        pair_cols = [np.sum(f * g[None, :], axis=1) * grid.dt for g in duals.values()]
        return integrals ** 2, np.column_stack(pair_cols)

    parts = map_chunks(chunk, ensemble.replicas, chunk=_CHUNK)
    sq = np.concatenate([p[0] for p in parts])
    pair_samples = np.vstack([p[1] for p in parts])
    moment, se = mean_and_stderr(sq)
    pairings = {name: mean_and_stderr(pair_samples[:, i])
                for i, name in enumerate(duals)}
    return SineCounterexampleReport(n, moment, se, ensemble.replicas, pairings)


def counterexample_spike(n: int, ensemble: Ensemble, grid: TimeGrid,
                         schedule: CouplingSchedule | None = None) -> SpikeCounterexampleReport:
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
    a = schedule.coefficient(n)
    scale = 1.0 / np.sqrt(1.0 + a * a)
    j_spike = grid.steps // n
    root_n = np.sqrt(float(n))

    def chunk(lo, hi):
        dW = increment_chunk(grid, 1, ensemble.seed, lo, hi)[:, :j_spike, 0]
        if a > 0:
            dB = increment_chunk(grid, 1, ensemble.seed, lo, hi, stream=1)[:, :j_spike, 0]
            dWn = (dW + a * dB) * scale
        else:
            dWn = dW
        return root_n * np.sum(dWn, axis=1)

    parts = map_chunks(chunk, ensemble.replicas, chunk=_CHUNK)
    integrals = np.concatenate(parts)
    mean, mean_se = mean_and_stderr(integrals)
    centred_sq = (integrals - mean) ** 2
    var_sum = float(pairwise_sum(centred_sq))
    variance = var_sum / (ensemble.replicas - 1)
    _, var_se = mean_and_stderr(centred_sq)
    tail = float(pairwise_sum((np.abs(integrals) > 1.96).astype(float)) / ensemble.replicas)
    # left-node rectangle rule is exact for the grid-aligned step function
    l2_sq = n * j_spike * grid.dt
    t_mid = grid.left_nodes[:j_spike] + grid.dt / 2.0
    linear_pairing = float(root_n * np.sum(t_mid) * grid.dt)
    return SpikeCounterexampleReport(n, variance, var_se, mean, mean_se, tail,
                                     l2_sq, linear_pairing, ensemble.replicas)


# ----------------------------------------------------------------------
# spatially extended mode (L^1 torus integrands)
# ----------------------------------------------------------------------

@dataclass
class L1ModeReport:
    report: ConvergenceReport
    hypothesis_norms: dict = field(default_factory=dict)  # n -> E ||V_n||_{L^p_t L^1_x}^p
    invalid: bool = False


def l1_torus_mode(grid: TimeGrid, k: int, beta: TestFunction,
                  Vn_field: ProcessFamily, V_field: ProcessLimit,
                  schedule: CouplingSchedule, n_values: list[int],
                  ensemble: Ensemble, mode: str = "strong", p: float = 3.0,
                  growth_factor: float = 2.0, ys=None) -> L1ModeReport:
    """Run the gap scan on paired-down field integrands, monitoring the
    uniform L^p_t L^1_x bound the spatially-extended mode assumes.

    A hypothesis-norm growing past growth_factor times its ladder minimum
    marks the experiment invalid (not failed): the limit statement would not apply.
    """
    def paired_family(draw: ReplicaDraw, n: int) -> AdaptedProcess:
        return pair(beta, Vn_field(draw, n))

    def paired_limit(draw: ReplicaDraw) -> AdaptedProcess:
        return pair(beta, V_field(draw))

    report = convergence_scan(grid, k, paired_family, paired_limit, schedule,
                              n_values, ensemble, mode, ys)
    norms = {}
    dt = grid.dt
    probe = min(ensemble.replicas, 64)  # the bound is a monitor, not a statistic
    for n in n_values:
        acc = np.empty(probe)
        for r in range(probe):
            draw = ReplicaDraw.sample(grid, k, ensemble.seed, r)
            mag = Vn_field(draw, n).node_magnitude()
            acc[r] = np.sum(mag ** p) * dt
        norms[n] = float(pairwise_sum(acc) / probe)
    floor = min(norms.values())
    invalid = any(v > growth_factor * floor for v in norms.values())
    out = L1ModeReport(report, norms, invalid)
    if invalid:
        report.invalid = True
        report.notes.append("uniform L^p_t L^1_x hypothesis violated: experiment invalid")
    return out
