"""Stochastic scalar conservation laws and their kinetic-formulation diagnostics.

The solver is Engquist-Osher for the flux, a centred second difference for the
vanishing viscosity, and a left-point noise increment sigma(u(t_j)) . dW_j.
Along the way it accumulates the kinetic defect measure as two nonnegative
deposits per step: the parabolic part eps |D_x u|^2 dt at the level of the
current solution value, and the flux scheme's Kruzkov entropy residuals
|u - kappa| over a ladder of equispaced kappa levels (the level-kappa entropy
density is half the Kruzkov residual, since |.-kappa|'' = 2 delta_kappa).

The subgraph indicator chi(t, x, xi) = 1{xi < u(t, x)} is kept implicit in u;
all xi-integrals against chi are evaluated exactly (Gauss quadrature on
[xi_min, u] or the fundamental theorem of calculus for perfect-derivative
integrands), so the weak kinetic residual sees scheme error, not binning
error. The solution must stay inside the configured kinetic window: escapes
abort rather than clamp, because clamping would silently corrupt the
monotonicity statistics of chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import gauss_on_intervals, max_y_gap, pairwise_sum
from .errors import ConfigurationError, RangeEscapeError
from .processes import TestFunction, _test_variables, spectral_prolong
from .transport import (REFERENCE_PROBE, FieldPath, LadderReport, TorusGrid, _explicit_march,
                        _initial_state, _noise_once_per_state, _shared_draw,
                        translation_ensembles)
from .mollify import bump, bump_derivative
from .wiener import CouplingSchedule, TimeGrid, WienerPath


# ----------------------------------------------------------------------
# coefficient families with closed-form Engquist-Osher splittings
# ----------------------------------------------------------------------

def _check_derivative(f: Callable, df: Callable, window: tuple[float, float], tol: float,
                      name: str) -> float:
    """Max |df - central difference of f| over the window; raises past tol (scaled)."""
    xi = np.linspace(window[0], window[1], 4097)
    h = xi[1] - xi[0]
    fd = (f(xi[2:]) - f(xi[:-2])) / (2 * h)
    err = float(np.max(np.abs(df(xi[1:-1]) - fd)))
    scale = max(1.0, float(np.max(np.abs(df(xi)))))
    if err > tol * scale * 10:  # second-order FD on 4096 cells
        raise ConfigurationError(f"{name} derivative inconsistent: residual {err:.2e}")
    return err


@dataclass(frozen=True)
class FluxFamily:
    """Scalar flux with its derivative and exact monotone splitting.

    eo_plus(u) = F(0) + int_0^u max(F', 0), eo_minus(u) = int_0^u min(F', 0);
    the interface flux is eo_plus(left) + eo_minus(right).
    """

    name: str
    F: Callable[[np.ndarray], np.ndarray]
    Fp: Callable[[np.ndarray], np.ndarray]
    eo_plus: Callable[[np.ndarray], np.ndarray]
    eo_minus: Callable[[np.ndarray], np.ndarray]

    def interface(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.eo_plus(left) + self.eo_minus(right)

    def check_derivative_consistency(self, window: tuple[float, float],
                                     tol: float = 1e-6) -> float:
        return _check_derivative(self.F, self.Fp, window, tol, "flux")

    def split_consistency(self, window: tuple[float, float]) -> float:
        xi = np.linspace(window[0], window[1], 513)
        return float(np.max(np.abs(self.eo_plus(xi) + self.eo_minus(xi) - self.F(xi))))


def quadratic_flux(scale: float = 1.0, shift: float = 0.0, name: str = "burgers") -> FluxFamily:
    """F(xi) = scale xi^2 / 2 + shift xi (Burgers for scale=1, shift=0)."""
    if scale <= 0:
        raise ConfigurationError("quadratic flux needs positive curvature")
    star = -shift / scale  # zero of F'

    def F(u):
        return 0.5 * scale * u * u + shift * u

    def Fp(u):
        return scale * u + shift

    def eo_plus(u):
        return 0.5 * scale * (np.maximum(u - star, 0.0) ** 2 - max(-star, 0.0) ** 2)

    def eo_minus(u):
        return 0.5 * scale * (np.minimum(u - star, 0.0) ** 2 - min(-star, 0.0) ** 2)

    return FluxFamily(name, F, Fp, eo_plus, eo_minus)


def linear_flux(c: float) -> FluxFamily:
    def F(u):
        return c * u

    def Fp(u):
        return np.full_like(np.asarray(u, dtype=float), c)

    if c >= 0:
        return FluxFamily("linear", F, Fp, F, lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    return FluxFamily("linear", F, Fp, lambda u: np.zeros_like(np.asarray(u, dtype=float)), F)


def cubic_flux(scale: float = 1.0) -> FluxFamily:
    if scale <= 0:
        raise ConfigurationError("cubic flux needs positive scale")

    def F(u):
        return scale * u ** 3 / 3.0

    def Fp(u):
        return scale * u ** 2

    return FluxFamily("cubic", F, Fp, F, lambda u: np.zeros_like(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class SigmaXi:
    """Kinetic noise coefficient xi -> sigma(xi) in R^k with derivative."""

    fn: Callable[[np.ndarray], np.ndarray]       # (...,) -> (..., k)
    dfn: Callable[[np.ndarray], np.ndarray]
    k: int
    bound: float

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.fn(xi)

    def check_derivative_consistency(self, window: tuple[float, float],
                                     tol: float = 1e-6) -> float:
        return _check_derivative(self.fn, self.dfn, window, tol, "sigma")


def constant_sigma(vector: np.ndarray) -> SigmaXi:
    vec = np.atleast_1d(np.asarray(vector, dtype=float))

    def fn(xi):
        return np.broadcast_to(vec, np.shape(xi) + (vec.size,)).copy()

    def dfn(xi):
        return np.zeros(np.shape(xi) + (vec.size,))

    return SigmaXi(fn, dfn, vec.size, float(np.linalg.norm(vec)))


def bounded_smooth_sigma(amplitude: float, frequency: float = 1.0,
                         linear_tilt: float = 0.0) -> SigmaXi:
    """sigma(xi) = amplitude (sin(f xi), cos(f xi)) + tilt (xi-free smooth mix)."""
    def fn(xi):
        xi = np.asarray(xi, dtype=float)
        return amplitude * np.stack([np.sin(frequency * xi + linear_tilt),
                                     np.cos(frequency * xi)], axis=-1)

    def dfn(xi):
        xi = np.asarray(xi, dtype=float)
        return amplitude * frequency * np.stack([np.cos(frequency * xi + linear_tilt),
                                                 -np.sin(frequency * xi)], axis=-1)

    return SigmaXi(fn, dfn, 2, abs(amplitude) * np.sqrt(2.0))


@dataclass(frozen=True)
class KineticProblem:
    flux: FluxFamily
    sigma: SigmaXi | None
    epsilon: float
    u0: Callable[[np.ndarray], np.ndarray]
    xi_min: float
    xi_max: float
    n_xi: int = 64
    kappa_levels: int = 17

    def __post_init__(self):
        if self.xi_max <= self.xi_min:
            raise ConfigurationError("empty kinetic window")
        if self.epsilon < 0:
            raise ConfigurationError("viscosity must be nonnegative")
        if self.kappa_levels < 3 or self.n_xi < 8:
            raise ConfigurationError("kinetic resolution too coarse")
        self.flux.check_derivative_consistency((self.xi_min, self.xi_max))
        if self.sigma is not None:
            self.sigma.check_derivative_consistency((self.xi_min, self.xi_max))
        if self.flux.split_consistency((self.xi_min, self.xi_max)) > 1e-10:
            raise ConfigurationError("Engquist-Osher splitting inconsistent with the flux")

    @property
    def k(self) -> int:
        return 1 if self.sigma is None else self.sigma.k

    @property
    def window(self) -> tuple[float, float]:
        return (self.xi_min, self.xi_max)

    def max_wave_speed(self, grid: TorusGrid) -> float:
        """max |F'| over the kinetic window (the grid plays no part)."""
        xi = np.linspace(self.xi_min, self.xi_max, 513)
        return float(np.max(np.abs(self.flux.Fp(xi))))

    @property
    def kappa(self) -> np.ndarray:
        return self.xi_min + (np.arange(self.kappa_levels) + 0.5) * self.kappa_width

    @property
    def kappa_width(self) -> float:
        return (self.xi_max - self.xi_min) / self.kappa_levels

    @property
    def xi_edges(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.n_xi + 1)

    @property
    def xi_centers(self) -> np.ndarray:
        e = self.xi_edges
        return 0.5 * (e[:-1] + e[1:])


def kinetic_window(u0_values: np.ndarray, noise_bound: float, horizon: float,
                   margin_factor: float = 0.5) -> tuple[float, float]:
    """Window with a range-proportional margin plus 4 noise standard deviations."""
    lo, hi = float(np.min(u0_values)), float(np.max(u0_values))
    spread = max(hi - lo, 1.0)
    pad = margin_factor * spread + 4.0 * noise_bound * np.sqrt(max(horizon, 0.0))
    return lo - pad, hi + pad


# ----------------------------------------------------------------------
# kinetic measure and subgraph function
# ----------------------------------------------------------------------

@dataclass
class KineticMeasure:
    """Nonnegative defect deposits over (t, x, xi), cumulative at snapshots.

    Entropy-residual deposits are stored per Kruzkov level (exact xi location
    for pairings); parabolic deposits are binned on the xi grid. step_mass is
    the total mass added per time step, for uniform-boundedness monitors.
    """

    kappa: np.ndarray
    xi_centers: np.ndarray
    snap_idx: np.ndarray
    kappa_cum: np.ndarray      # (S, cells, levels)
    parabolic_cum: np.ndarray  # (S, cells, n_xi)
    step_mass: np.ndarray      # (N_t,)
    clamped_negative: float    # total residual magnitude clipped to keep bins >= 0

    def total_mass(self, snap: int = -1) -> float:
        return float(self.kappa_cum[snap].sum() + self.parabolic_cum[snap].sum())

    def pairing(self, psi_values: np.ndarray, zeta_prime: Callable, snap: int) -> float:
        """<psi(x) zeta'(xi), m([0, t_snap])>, exact in the kappa part."""
        k_part = np.einsum("xl,x,l->", self.kappa_cum[snap], psi_values,
                           zeta_prime(self.kappa))
        p_part = np.einsum("xb,x,b->", self.parabolic_cum[snap], psi_values,
                           zeta_prime(self.xi_centers))
        return float(k_part + p_part)

    def mass_in_window(self, x_range: tuple[float, float], cells: int,
                       snap: int = -1) -> float:
        x = np.arange(cells) / cells
        mask = (x >= x_range[0]) & (x < x_range[1])
        return float(self.kappa_cum[snap][mask].sum()
                     + self.parabolic_cum[snap][mask].sum())


@dataclass(frozen=True)
class KineticField:
    """chi(t, x, xi) = 1{xi < u(t, x)}, stored implicitly through u."""

    u: np.ndarray            # (N_t + 1, cells)
    xi_centers: np.ndarray

    def indicator(self, node: int | None = None) -> np.ndarray:
        u = self.u if node is None else self.u[node]
        return (self.xi_centers < u[..., None]).astype(np.uint8)

    def layer_cake(self, node: int) -> np.ndarray:
        """int_0^{xi_max} chi dxi per cell, equal to max(u, 0) up to a bin width."""
        chi = self.indicator(node)
        dxi = self.xi_centers[1] - self.xi_centers[0]
        positive = self.xi_centers >= 0.0
        return chi[:, positive].sum(axis=1) * dxi


def kinetic_function(path_values: np.ndarray, problem: KineticProblem) -> KineticField:
    u = np.asarray(path_values, dtype=float)
    if np.min(u) < problem.xi_min or np.max(u) > problem.xi_max:
        raise RangeEscapeError("solution left the kinetic window")
    return KineticField(u, problem.xi_centers)


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------

def _entropy_flux(flux: FluxFamily, kappa: float | np.ndarray, left: np.ndarray,
                  right: np.ndarray) -> np.ndarray:
    """Numerical Kruzkov entropy flux: EO applied to u v kappa minus u ^ kappa.

    kappa may be an array of levels that broadcasts against left and right.
    The EO parts are pointwise, so each is evaluated once on the states and
    once on the levels, and u v kappa and u ^ kappa pick their values.
    """
    left_above, right_above = left >= kappa, right >= kappa
    plus_u, plus_k = flux.eo_plus(left), flux.eo_plus(kappa)
    minus_u, minus_k = flux.eo_minus(right), flux.eo_minus(kappa)
    return ((np.where(left_above, plus_u, plus_k) + np.where(right_above, minus_u, minus_k))
            - (np.where(left_above, plus_k, plus_u) + np.where(right_above, minus_k, minus_u)))


def _march_claw(problem: KineticProblem, grid: TorusGrid, tgrid: TimeGrid,
                u0: np.ndarray, dW: np.ndarray | None,
                snap_idx: np.ndarray | None = None,
                store_full: bool = False,
                measure_detail: bool = False,
                pairings: dict[str, tuple[np.ndarray, Callable]] | None = None,
                measure_pairing: tuple[np.ndarray, Callable] | None = None):
    """Engquist-Osher + viscosity + Euler-Maruyama noise; see transport._explicit_march.

    measure_detail keeps the full (cells, levels)+(cells, bins) cumulative
    deposits at snapshots (single-path use); pairings maps a name to
    (psi nodal values, fn) and produces traces t_j -> dx sum_i psi_i fn(u)_i;
    measure_pairing accumulates <psi zeta', m([0, t_j])> and the per-step
    total defect mass.
    """
    dt, dx = tgrid.dt, grid.dx
    nt = tgrid.steps
    flux, sigma, eps = problem.flux, problem.sigma, problem.epsilon
    kappa, dkappa = problem.kappa, problem.kappa_width
    xi_lo, xi_hi = problem.window
    edges = problem.xi_edges
    lead = np.shape(u0)[:-1]
    measuring = measure_detail or measure_pairing is not None
    if np.min(u0) < xi_lo or np.max(u0) > xi_hi:
        raise RangeEscapeError("initial datum outside the kinetic window")

    if measure_detail:
        if lead:
            raise ConfigurationError("detailed measures are single-path only")
        snap_pos = {int(j): s for s, j in enumerate(snap_idx)}
        kappa_run = np.zeros((grid.cells, problem.kappa_levels))
        parab_run = np.zeros((grid.cells, problem.n_xi))
        kappa_cum = np.zeros((len(snap_idx), grid.cells, problem.kappa_levels))
        parab_cum = np.zeros((len(snap_idx), grid.cells, problem.n_xi))
    step_mass = np.zeros(lead + (nt,))
    clamped = 0.0
    deposits = None
    if measure_pairing is not None:
        psi_m, zeta_prime = measure_pairing
        m_trace = np.zeros(lead + (nt + 1,))

    def step(j, u):
        nonlocal clamped, deposits
        left = u
        right = np.roll(u, -1, axis=-1)
        f_iface = flux.interface(left, right)
        adv = (f_iface - np.roll(f_iface, 1, axis=-1)) * (dt / dx)
        u_adv = u - adv
        # Kruzkov bookkeeping on the flux sub-step: the level-kappa defect
        # density is half the clipped residual of the discrete entropy balance,
        # for all levels at once on a trailing axis
        if measuring:
            h_iface = _entropy_flux(flux, kappa, left[..., None], right[..., None])
            eta_balance = (np.abs(u[..., None] - kappa)
                           - (h_iface - np.roll(h_iface, 1, axis=-2)) * (dt / dx))
            r = eta_balance - np.abs(u_adv[..., None] - kappa)
            if measure_detail:
                for l in range(len(kappa)):
                    clamped += float(np.sum(np.minimum(r[..., l], 0.0)))
            # C order, as before: the step_mass and measure-pairing sums follow it
            deposits = np.ascontiguousarray(np.maximum(r, 0.0) * (0.5 * dx * dkappa))
        lap = (right - 2.0 * u + np.roll(u, 1, axis=-1)) / dx ** 2
        u_new = u_adv + eps * dt * lap
        if dW is not None and sigma is not None:
            u_new = u_new + np.einsum("...xk,...k->...x", sigma(u), dW[..., j, :])
        return u_new

    # the step's parabolic deposits and all bookkeeping, once u_new is known
    # to be finite and inside the window
    def after_step(j, u, u_new):
        nonlocal kappa_run
        if np.min(u_new) < xi_lo or np.max(u_new) > xi_hi:
            raise RangeEscapeError(
                f"solution escaped the kinetic window [{xi_lo}, {xi_hi}] at step {j}")
        if not measuring:
            return
        parab = None
        if eps > 0.0:
            grad = (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1)) / (2.0 * dx)
            parab = eps * grad * grad * (dt * dx)
        step_mass[..., j] = deposits.sum(axis=(-1, -2)) if lead else deposits.sum()
        if parab is not None:
            step_mass[..., j] += parab.sum(axis=-1) if lead else parab.sum()
        if measure_detail:
            kappa_run += deposits
            if parab is not None:
                bins = np.clip(((u - xi_lo) / (edges[1] - edges[0])).astype(int),
                               0, problem.n_xi - 1)
                np.add.at(parab_run, (np.arange(grid.cells), bins), parab)
            if (j + 1) in snap_pos:
                kappa_cum[snap_pos[j + 1]] = kappa_run
                parab_cum[snap_pos[j + 1]] = parab_run
        if measure_pairing is not None:
            m_trace[..., j + 1] = m_trace[..., j] + np.einsum(
                "...xl,x,l->...", deposits, psi_m, zeta_prime(kappa))
            if parab is not None:
                m_trace[..., j + 1] += np.einsum("...x,x,...x->...", parab, psi_m,
                                                 zeta_prime(u))

    out = _explicit_march(problem, grid, tgrid, u0, step, pairings, store_full, snap_idx,
                          after_step)
    out["step_mass"] = step_mass
    if measure_detail:
        out["measure"] = KineticMeasure(kappa, problem.xi_centers,
                                        np.asarray(snap_idx), kappa_cum, parab_cum,
                                        step_mass, clamped)
    if measure_pairing is not None:
        out["m_trace"] = m_trace
    return out


def ito_pairing_fn(problem: KineticProblem, phi: "KineticTestFunction") -> Callable:
    """u -> zeta(u) sigma(u): the exact value of int d_xi(phi sigma) chi dxi.

    The fundamental theorem of calculus collapses the xi integral because the
    test function has compact xi-support inside the window.
    """
    def fn(u):
        return phi.zeta(u)[..., None] * problem.sigma(u)
    return fn


def chi_pairing_fn(phi: "KineticTestFunction", window: tuple[float, float]) -> Callable:
    """u -> int_{xi_min}^{u} zeta dxi by an antiderivative tabulated on 4096 cells."""
    xi = np.linspace(window[0], window[1], 4097)
    z = phi.zeta(xi)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (z[1:] + z[:-1]) * np.diff(xi))])

    def fn(u):
        return np.interp(u, xi, cum)
    return fn


def solve_claw(problem: KineticProblem, W: WienerPath, grid: TorusGrid,
               snapshots: int = 16) -> tuple[FieldPath, KineticMeasure]:
    """One path with full field storage and the detailed kinetic measure."""
    u0 = np.asarray(problem.u0(grid.x), dtype=float) * np.ones(grid.cells)
    dW = W.increments if problem.sigma is not None else None
    if problem.sigma is not None and W.dimension != problem.k:
        raise ConfigurationError("driver dimension does not match sigma")
    nt = W.grid.steps
    if nt % snapshots:
        raise ConfigurationError(f"snapshot count {snapshots} must divide {nt} steps")
    snap_idx = np.arange(0, nt + 1, nt // snapshots)
    res = _march_claw(problem, grid, W.grid, u0, dW, snap_idx=snap_idx,
                      store_full=True, measure_detail=True)
    return FieldPath(grid, W.grid, res["full"], res["energy"]), res["measure"]


# ----------------------------------------------------------------------
# kinetic weak form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KineticTestFunction:
    """Separable test function psi(x) zeta(xi), zeta compactly supported in xi."""

    psi: TestFunction
    zeta: Callable[[np.ndarray], np.ndarray]
    zeta_prime: Callable[[np.ndarray], np.ndarray]

    def validate_support(self, window: tuple[float, float]):
        lo, hi = window
        probe = np.array([lo, lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), hi])
        if np.max(np.abs(self.zeta(probe))) > 1e-12:
            raise ConfigurationError("zeta must be compactly supported inside the xi window")


def bump_test_function(psi: TestFunction, lo: float, hi: float) -> KineticTestFunction:
    """zeta = smooth bump on (lo, hi): C-infinity with exact derivative."""
    width = hi - lo

    def zeta(xi):
        return bump((np.asarray(xi, dtype=float) - lo) / width)

    def zeta_prime(xi):
        return bump_derivative((np.asarray(xi, dtype=float) - lo) / width) / width

    return KineticTestFunction(psi, zeta, zeta_prime)


def kinetic_residual(path: FieldPath, measure: KineticMeasure,
                     problem: KineticProblem, W: WienerPath,
                     phi: KineticTestFunction, t: float) -> float:
    """Discrete weak-form residual of the kinetic equation over [0, t].

    d chi + F'(xi) . grad_x chi dt - sigma(xi) d_xi chi dW
      - (1/2) d_xi(|sigma|^2 d_xi chi) dt - eps Lap_x chi dt = d_xi m dt,
    tested against psi(x) zeta(xi); t must be one of the measure's snapshots.
    All xi-integrals against chi are exact, so the value is at scheme-error
    scale for entropy solutions.
    """
    grid, tgrid = path.grid, path.tgrid
    phi.validate_support(problem.window)
    J = tgrid.node_index(t)
    matches = np.where(measure.snap_idx == J)[0]
    if matches.size == 0:
        raise ConfigurationError(f"time {t} is not a measure snapshot")
    snap = int(matches[0])
    dx, dt = grid.dx, tgrid.dt
    u = path.values
    psi, psi_d1, psi_d2 = phi.psi.values, phi.psi.d1, phi.psi.d2
    xi_lo = problem.xi_min

    def layer(fun, states):
        return gauss_on_intervals(fun, xi_lo, states)

    mass_now = dx * float(np.dot(psi, layer(phi.zeta, u[J])))
    mass_start = dx * float(np.dot(psi, layer(phi.zeta, u[0])))
    fzeta = lambda xi: problem.flux.Fp(xi) * phi.zeta(xi)
    transport = dt * dx * float(np.sum(layer(fzeta, u[:J]) @ psi_d1))
    viscous = problem.epsilon * dt * dx * float(np.sum(layer(phi.zeta, u[:J]) @ psi_d2))
    noise_term = 0.0
    ito_correction = 0.0
    if problem.sigma is not None:
        tr = np.einsum("x,jxk->jk", psi, phi.zeta(u[:J])[..., None] * problem.sigma(u[:J])) * dx
        noise_term = float(np.sum(tr * W.increments[:J]))
        sig_sq = np.sum(problem.sigma(u[:J]) ** 2, axis=-1)
        ito_correction = 0.5 * dt * dx * float(
            np.sum(psi[None, :] * phi.zeta_prime(u[:J]) * sig_sq))
    m_term = measure.pairing(psi, phi.zeta_prime, snap)
    return (mass_now - mass_start - transport - viscous - noise_term
            - ito_correction + m_term)


# ----------------------------------------------------------------------
# stability experiment (kinetic viscosity ladder)
# ----------------------------------------------------------------------

@dataclass
class KineticStabilityEntry:
    n: int
    ito_gap: float
    ito_gap_stderr: float
    chi_gap: float
    chi_gap_stderr: float
    measure_pairing_gap: float
    total_mass: float
    monitors: dict = field(default_factory=dict)  # coefficient_n -> coefficient distances


def _coefficient_distances(pn: KineticProblem, limit: KineticProblem) -> dict:
    xi = np.linspace(limit.xi_min, limit.xi_max, 1025)
    dxi = xi[1] - xi[0]
    return {
        "F": float(np.sum(np.abs(pn.flux.F(xi) - limit.flux.F(xi))) * dxi),
        "Fp": float(np.sum(np.abs(pn.flux.Fp(xi) - limit.flux.Fp(xi))) * dxi),
        "sigma": float(np.sum(np.abs(pn.sigma(xi) - limit.sigma(xi))) * dxi),
        "sigma_p": float(np.sum(np.abs(pn.sigma.dfn(xi) - limit.sigma.dfn(xi))) * dxi),
    }


def kinetic_stability_experiment(problems: dict[int, KineticProblem],
                                 limit: KineticProblem,
                                 schedule: CouplingSchedule,
                                 grid: TorusGrid, horizon: float,
                                 replicas: int, seed: int,
                                 phi: KineticTestFunction,
                                 refine: int = 4) -> LadderReport:
    """Kinetic ladder against the fine-mesh inviscid limit solve.

    Per n it reports the weak gap of the kinetic stochastic integral (the
    d_xi(phi sigma_n) chi_n pairing), a weak-star gap of chi_n itself, the
    Y-paired defect-measure convergence monitor, and the total defect mass.
    The draw and the time grids are transport._shared_draw's: each member and
    the reference (refine refines space only) march on their own divisor grid
    of one finest grid, and every Ito sum, chi pairing and m-pairing uses its
    own solve's grid. The reference_errors are the weak gaps between the
    reference's Ito-pairing sums and its refinement's in time and in space,
    on the first REFERENCE_PROBE replicas. cli.py judges the measurements.
    """
    n_values = sorted(problems)
    phi.validate_support(limit.window)
    report = LadderReport()
    monitor_rows = {n: _coefficient_distances(problems[n], limit) for n in n_values}

    chi_fn = chi_pairing_fn(phi, limit.window)
    batch, tgrids, ref_tgrid, check_tgrid = _shared_draw(
        problems, limit, grid, horizon, refine, 16, seed, replicas)

    def march(problem, r, tgrid, dW, chi=True, measure_pairing=None):
        """Solve on grid.refine(r): the result and the Ito sum of the pairing."""
        mesh = grid.refine(r)
        psi_r = phi.psi.values if r == 1 else spectral_prolong(phi.psi.values, r)
        problem = _noise_once_per_state(problem)
        pairings = {"ito": (psi_r, ito_pairing_fn(problem, phi))}
        if chi:
            pairings["chi"] = (psi_r, chi_fn)
        res = _march_claw(problem, mesh, tgrid, _initial_state(problem, mesh, len(dW)), dW,
                          pairings=pairings, measure_pairing=measure_pairing)
        return res, np.sum(res["traces"]["ito"][:, :-1, :] * dW, axis=(1, 2))

    def chi_pairings(res, tgrid):
        """int chi-pairing(t) d(t) dt against the weak-star duals d, on the solve's grid."""
        duals = (np.ones(tgrid.steps), np.sin(2 * np.pi * tgrid.left_nodes / horizon))
        trace = res["traces"]["chi"][:, :-1, 0]
        return np.stack([trace @ (d * tgrid.dt) for d in duals], axis=1)

    ref, ref_ito = march(limit, refine, ref_tgrid, batch.on(ref_tgrid).W.increments)
    ref_chi = chi_pairings(ref, ref_tgrid)
    ys = _test_variables(batch)

    for n in n_values:
        tgrid = tgrids[n]
        res, ito = march(problems[n], 1, tgrid, batch.on(tgrid).coupled(schedule, n).increments,
                         measure_pairing=(phi.psi.values, phi.zeta_prime))
        chi_rows = chi_pairings(res, tgrid) - ref_chi
        m_pair = res["m_trace"][:, :-1] @ (np.ones(tgrid.steps) * tgrid.dt)
        mass = res["step_mass"].sum(axis=1)

        ito_gap, ito_se = max_y_gap(ys, ito - ref_ito)
        chi_best = (0.0, 0.0)
        for col in range(chi_rows.shape[1]):
            g, se = max_y_gap(ys, chi_rows[:, col])
            if g >= chi_best[0]:
                chi_best = (g, se)
        m_gap, _ = max_y_gap(ys, m_pair)
        report.entries.append(KineticStabilityEntry(
            n, ito_gap, ito_se, chi_best[0], chi_best[1], m_gap,
            float(pairwise_sum(mass) / replicas), monitor_rows[n]))

    probe = batch.head(min(replicas, REFERENCE_PROBE))
    dW = probe.on(check_tgrid).W.increments
    _, in_time = march(limit, refine, check_tgrid, dW, chi=False)
    _, in_space = march(limit, 2 * refine, check_tgrid, dW, chi=False)
    y_probe = ys[:len(probe)]
    report.reference_errors = {"time": max_y_gap(y_probe, ref_ito[:len(probe)] - in_time)[0],
                               "space": max_y_gap(y_probe, in_time - in_space)[0]}
    return report


def claw_translation_ensembles(problem_of_n: Callable[[int], KineticProblem],
                               n_values: list[int], grid: TorusGrid,
                               tgrid: TimeGrid, replicas: int, seed: int,
                               phi: KineticTestFunction) -> dict[int, np.ndarray]:
    """Kinetic Ito-integrand pairing traces for the translation-rate fits."""
    def theta_of(pn):
        phi.validate_support(pn.window)
        return ito_pairing_fn(pn, phi)
    return translation_ensembles(_march_claw, problem_of_n, theta_of, phi.psi.values,
                                 n_values, grid, tgrid, replicas, seed)


def burgers_riemann(levels: tuple[float, float] = (1.0, 0.0),
                    jump_at: tuple[float, float] = (0.1, 0.5)) -> Callable:
    """Periodic Riemann-type datum: high level on [a, b), low elsewhere."""
    hi, lo = levels
    a, b = jump_at

    def u0(x):
        return np.where((x >= a) & (x < b), hi, lo)

    return u0


def shock_position(path: FieldPath, node: int, level: float = 0.5,
                   search: tuple[float, float] = (0.3, 0.95)) -> float:
    """Linear-interpolated crossing of the given level inside the search window."""
    x = path.grid.x
    u = path.values[node]
    mask = (x >= search[0]) & (x <= search[1])
    idx = np.where(mask)[0]
    for i in idx:
        j = (i + 1) % path.grid.cells
        if (u[i] - level) * (u[j] - level) <= 0 and u[i] != u[j]:
            frac = (u[i] - level) / (u[i] - u[j])
            return float(x[i] + frac * path.grid.dx)
    raise ConfigurationError("no level crossing found in the search window")
