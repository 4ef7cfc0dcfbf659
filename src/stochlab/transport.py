"""Finite-volume solver for stochastic transport/continuity equations on the torus.

The scheme is first-order and explicit: upwind interface fluxes for
div(b u), a centred second difference for the vanishing viscosity eps * Lap u,
forward Euler for the source, and a left-point (Euler-Maruyama) increment
sigma(u(t_j)) . dW_j for the noise. The flux form is conservative, so with
zero source and zero noise the spatial mean is constant per path to roundoff.

Stability experiments compare viscous solutions u_n (eps = 1/n, data_n,
coupled drivers W_n) against a fine-mesh solve of the inviscid limit problem
driven by the same Brownian realization: the fine time grid carries the
increments and the coarse grid sees their block sums, so both solves read one
path. The experiment records L^p(Omega x [0,T] x T^1) distances, the uniform
energy bound against its Gronwall constant, the weak gaps of the two
stochastic integrals the renormalisation argument needs (the sigma(u) pairing
and the eta' sigma pairing), and sign monitors for weak limits of
sign-definite statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._util import (max_y_gap, mean_and_stderr, pairwise_sum,
                    trapezoid_weights)
from .errors import CFLError, ConfigurationError, SolverBlowupError
from .processes import (ExponentSet, TestFunction, _test_variable_matrix,
                        spectral_derivative, spectral_prolong)
from .wiener import (CouplingSchedule, TimeGrid, WienerPath,
                     aggregate_increments, increment_chunk, initial_chunk)

CFL_LIMIT = 0.9


@dataclass(frozen=True)
class TorusGrid:
    """Periodic grid on the unit torus, nodes x_i = i / cells."""

    cells: int
    dim: int = 1

    def __post_init__(self):
        if self.cells < 16:
            raise ConfigurationError(f"need at least 16 cells, got {self.cells}")
        if self.dim != 1:
            raise ConfigurationError("only d = 1 is wired up; the schemes are dimension-agnostic")

    @property
    def dx(self) -> float:
        return 1.0 / self.cells

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.cells) * self.dx

    @property
    def x_interfaces(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.dx

    def refine(self, factor: int) -> "TorusGrid":
        return TorusGrid(self.cells * factor, self.dim)


@dataclass(frozen=True)
class StateNoise:
    """Multiplicative coefficient u -> sigma(u) in R^k, globally Lipschitz."""

    fn: Callable[[np.ndarray], np.ndarray]  # (...,) -> (..., k)
    k: int
    lipschitz: float
    bound: float  # sup |sigma|, used for kinetic windows and Gronwall constants

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(u)


@dataclass(frozen=True)
class AdditiveNoise:
    """Additive field coefficient sigma(x) in R^k (constant vectors included)."""

    values: np.ndarray  # (cells, k)

    @property
    def k(self) -> int:
        return self.values.shape[1]


def bounded_smooth_noise(amplitude: float, frequency: float = 1.0) -> StateNoise:
    """sigma(v) = amplitude * (sin(f v), cos(f v)): C^{1,1}, bounded, Lipschitz.

    Bounded second derivative keeps the technical growth condition on the
    noise coefficient satisfied for every p >= 3.
    """
    def fn(u):
        return amplitude * np.stack([np.sin(frequency * u), np.cos(frequency * u)], axis=-1)
    return StateNoise(fn, 2, abs(amplitude * frequency), abs(amplitude) * np.sqrt(2.0))


@dataclass(frozen=True)
class TransportProblem:
    """Data tuple (b, div b, f, sigma, eps, u0) for the continuity equation."""

    velocity: Callable[[np.ndarray], np.ndarray]       # b(x)
    divergence: Callable[[np.ndarray], np.ndarray]     # div b(x)
    source: Callable[[np.ndarray], np.ndarray]         # f(x)
    noise: StateNoise | AdditiveNoise | None
    epsilon: float
    u0: Callable[[np.ndarray], np.ndarray]
    exponents: ExponentSet = ExponentSet(3.0)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigurationError("viscosity must be nonnegative")

    @property
    def p(self) -> float:
        return self.exponents.p

    @property
    def k(self) -> int:
        if self.noise is None:
            return 1
        return self.noise.k

    def max_wave_speed(self, grid: TorusGrid) -> float:
        b = np.abs(np.asarray(self.velocity(grid.x_interfaces), dtype=float))
        return float(np.max(b)) if b.ndim else float(b)

    def check_divergence_consistency(self, grid: TorusGrid, tol: float = 1e-6) -> float:
        """Spectral-derivative check of div b against b on the grid."""
        b = np.asarray(self.velocity(grid.x), dtype=float) * np.ones(grid.cells)
        div = np.asarray(self.divergence(grid.x), dtype=float) * np.ones(grid.cells)
        err = float(np.max(np.abs(spectral_derivative(b, 1) - div)))
        if err > tol * max(1.0, float(np.max(np.abs(div)))):
            raise ConfigurationError(f"div b inconsistent with b: spectral residual {err:.2e}")
        return err


def cfl_number(problem, grid: TorusGrid, dt: float) -> float:
    """Advective plus viscous CFL number of an explicit scheme.

    problem is a TransportProblem or a claw.KineticProblem: anything with
    max_wave_speed(grid) and epsilon.
    """
    speed = problem.max_wave_speed(grid)
    return speed * dt / grid.dx + 2.0 * problem.epsilon * dt / grid.dx ** 2


def steps_for_cfl(problem, grid: TorusGrid, horizon: float,
                  target: float = 0.45, multiple_of: int = 1) -> int:
    """Smallest step count (rounded to a multiple) meeting the CFL target."""
    speed = problem.max_wave_speed(grid)
    rate = speed / grid.dx + 2.0 * problem.epsilon / grid.dx ** 2
    steps = int(np.ceil(horizon * rate / target))
    return max(multiple_of, ((steps + multiple_of - 1) // multiple_of) * multiple_of)


@dataclass(frozen=True)
class FieldPath:
    """Space-time trajectory with its quadratic-energy trace."""

    grid: TorusGrid
    tgrid: TimeGrid
    values: np.ndarray       # (N_t + 1, cells)
    energy: np.ndarray       # (N_t + 1,), int u^2/2 dx per node

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field path must be finite")
        recomputed = _energy_of(self.values, self.grid.dx)
        if np.max(np.abs(recomputed - self.energy)) > 1e-12 * max(1.0, float(np.max(np.abs(self.energy)))):
            raise ConfigurationError("energy trace inconsistent with field values")

    def spatial_mean(self) -> np.ndarray:
        return pairwise_sum(self.values, axis=1) / self.grid.cells


def _energy_of(values: np.ndarray, dx: float) -> np.ndarray:
    return pairwise_sum(values * values, axis=-1) * (0.5 * dx)


def _explicit_march(problem, grid: TorusGrid, tgrid: TimeGrid, u0: np.ndarray,
                    step: Callable, pairings: dict[str, tuple[np.ndarray, Callable]] | None = None,
                    store_full: bool = False, snap_idx: np.ndarray | None = None,
                    after_step: Callable | None = None) -> dict:
    """Step loop shared by the explicit schemes, from u0 of shape (..., cells).

    step(j, u) returns the state at t_{j+1}; after_step(j, u, u_new), if
    given, sees each new state once it is known to be finite. pairings maps a
    name to (psi nodal values, theta) and produces the trace
    t_j -> dx * sum_i psi_i theta(u(t_j))_i in R^k at every node. Returns a
    dict with whatever was requested plus the energy trace and final state.
    """
    dx, nt = grid.dx, tgrid.steps
    cfl = cfl_number(problem, grid, tgrid.dt)
    if cfl > CFL_LIMIT:
        raise CFLError(f"CFL number {cfl:.3f} exceeds {CFL_LIMIT}")
    u = np.array(u0, dtype=float, copy=True)
    lead = u.shape[:-1]

    energy = np.empty(lead + (nt + 1,))
    energy[..., 0] = _energy_of(u, dx)
    out: dict = {"energy": energy}
    if store_full:
        full = out["full"] = np.empty((nt + 1,) + u.shape)
        full[0] = u
    snap_pos = {}
    if snap_idx is not None:
        snaps = out["snapshots"] = np.empty(lead + (len(snap_idx), grid.cells))
        snap_pos = {int(j): s for s, j in enumerate(snap_idx)}
        if 0 in snap_pos:
            snaps[..., snap_pos[0], :] = u
    pairings = pairings or {}
    traces = {}
    for name, (psi, theta) in pairings.items():
        probe = theta(u)
        kk = probe.shape[-1] if probe.ndim > u.ndim else 1
        traces[name] = np.empty(lead + (nt + 1, kk))
        traces[name][..., 0, :] = _pair_theta(psi, probe, u.ndim, dx)

    for j in range(nt):
        u_new = step(j, u)
        if not np.all(np.isfinite(u_new)):
            raise SolverBlowupError(j)
        if after_step is not None:
            after_step(j, u, u_new)
        u = u_new
        energy[..., j + 1] = _energy_of(u, dx)
        if store_full:
            full[j + 1] = u
        if (j + 1) in snap_pos:
            snaps[..., snap_pos[j + 1], :] = u
        for name, (psi, theta) in pairings.items():
            probe = theta(u)
            traces[name][..., j + 1, :] = _pair_theta(psi, probe, u.ndim, dx)

    out["final"] = u
    if pairings:
        out["traces"] = traces
    return out


def _march(problem: TransportProblem, grid: TorusGrid, tgrid: TimeGrid,
           u0: np.ndarray, dW: np.ndarray | None,
           pairings: dict[str, tuple[np.ndarray, Callable]] | None = None,
           store_full: bool = False, snap_idx: np.ndarray | None = None):
    """Upwind + viscosity + source + Euler-Maruyama noise; see _explicit_march."""
    dt, dx = tgrid.dt, grid.dx
    b_iface = np.asarray(problem.velocity(grid.x_interfaces), dtype=float) * np.ones(grid.cells)
    bp, bm = np.maximum(b_iface, 0.0), np.minimum(b_iface, 0.0)
    f_cells = np.asarray(problem.source(grid.x), dtype=float) * np.ones(grid.cells)
    eps, noise = problem.epsilon, problem.noise
    if dW is None:
        noise = None

    def step(j, u):
        right = np.roll(u, -1, axis=-1)
        flux = bp * u + bm * right
        div = (flux - np.roll(flux, 1, axis=-1)) / dx
        lap = (right - 2.0 * u + np.roll(u, 1, axis=-1)) / dx ** 2
        incr = -dt * div + eps * dt * lap + dt * f_cells
        if isinstance(noise, AdditiveNoise):
            incr = incr + np.einsum("xk,...k->...x", noise.values, dW[..., j, :])
        elif noise is not None:
            incr = incr + np.einsum("...xk,...k->...x", noise(u), dW[..., j, :])
        return u + incr

    return _explicit_march(problem, grid, tgrid, u0, step, pairings, store_full, snap_idx)


def _pair_theta(psi: np.ndarray, probe: np.ndarray, u_ndim: int, dx: float) -> np.ndarray:
    if probe.ndim == u_ndim:        # scalar theta
        probe = probe[..., None]
    return pairwise_sum(psi[:, None] * probe, axis=-2) * dx


def solve_transport(problem: TransportProblem, W: WienerPath, grid: TorusGrid) -> FieldPath:
    """One path of the explicit scheme, with full field storage."""
    u0 = np.asarray(problem.u0(grid.x), dtype=float) * np.ones(grid.cells)
    dW = W.increments if problem.noise is not None else None
    if problem.noise is not None and W.dimension != problem.k:
        raise ConfigurationError("driver dimension does not match the noise coefficient")
    res = _march(problem, grid, W.grid, u0, dW, store_full=True)
    return FieldPath(grid, W.grid, res["full"], res["energy"])


def weak_residual(path: FieldPath, problem: TransportProblem, W: WienerPath,
                  phi: TestFunction, t: float) -> float:
    """Discrete residual of the weak (in x) Ito form of the equation at time t.

    [int u phi]_0^t - int int phi' b u - int int f phi - eps int int phi'' u
    - sum (int sigma(u) phi dx) . dW, all with left-rectangle time quadrature
    matching the scheme; the value sits at scheme-error scale.
    """
    grid, tgrid = path.grid, path.tgrid
    if phi.cells != grid.cells:
        raise ConfigurationError("test function and field use different spatial grids")
    J = tgrid.node_index(t)
    dx, dt = grid.dx, tgrid.dt
    u = path.values
    b = np.asarray(problem.velocity(grid.x), dtype=float) * np.ones(grid.cells)
    f = np.asarray(problem.source(grid.x), dtype=float) * np.ones(grid.cells)
    mass = dx * (np.dot(phi.values, u[J]) - np.dot(phi.values, u[0]))
    transport = dt * dx * float(np.sum(u[:J] @ (phi.d1 * b)))
    source = dt * dx * float(np.sum(np.dot(phi.values, f)) * J)
    viscous = problem.epsilon * dt * dx * float(np.sum(u[:J] @ phi.d2))
    noise_term = 0.0
    if problem.noise is not None:
        dW = W.increments[:J]
        if isinstance(problem.noise, AdditiveNoise):
            paired = np.broadcast_to(phi.values @ problem.noise.values * dx, (J, problem.noise.k))
        else:
            paired = np.einsum("x,jxk->jk", phi.values, problem.noise(u[:J])) * dx
        noise_term = float(np.sum(paired * dW))
    return mass - transport - source - viscous - noise_term


def renormalized_pairing(path: FieldPath, psi: TestFunction,
                         theta: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Trace t_j -> int psi(x) theta(u(t_j, x)) dx, shape (N_t + 1,) or (N_t + 1, k)."""
    if psi.cells != path.grid.cells:
        raise ConfigurationError("test function and field use different spatial grids")
    probe = theta(path.values)
    out = _pair_theta(psi.values, probe, path.values.ndim, path.grid.dx)
    return out[..., 0] if probe.ndim == path.values.ndim else out


def variance_inequality_residuals(u_samples: np.ndarray, noise: StateNoise):
    """Empirical form of the variance inequality the strong-stability proof uses.

    For samples of u at a fixed point: Var sigma(u) <= E|sigma(u) - sigma(E u)|^2
    always, and Var sigma(u) <= L^2 Var(u) by the Lipschitz bound. Returns the
    two slacks (should be >= 0 up to Monte Carlo error).
    """
    s = noise(u_samples)
    mean_s = s.mean(axis=0)
    var_s = float(np.sum((s - mean_s) ** 2) / len(u_samples))
    around_mean_u = float(np.sum((s - noise(np.asarray(u_samples.mean()))) ** 2) / len(u_samples))
    var_u = float(np.var(u_samples))
    return around_mean_u - var_s, noise.lipschitz ** 2 * var_u - var_s


def gronwall_energy_bound(problem: TransportProblem, grid: TorusGrid, horizon: float,
                          u0_sq: float | None = None) -> float:
    """Continuum Gronwall majorant for E sup_t ||u(t)||_{L^2}^2.

    d/dt E||u||^2 <= (||div b||_inf + 1 + 2 L^2) E||u||^2 + ||f||^2 + 2|sigma(0)|^2,
    so the bound is (||u_0||^2 + T c_1) exp(T c_2).
    """
    div = np.asarray(problem.divergence(grid.x), dtype=float) * np.ones(grid.cells)
    f = np.asarray(problem.source(grid.x), dtype=float) * np.ones(grid.cells)
    if u0_sq is None:
        u0 = np.asarray(problem.u0(grid.x), dtype=float) * np.ones(grid.cells)
        u0_sq = float(np.mean(u0 ** 2))
    f_sq = float(np.mean(f ** 2))
    if problem.noise is None:
        lip, sigma0_sq = 0.0, 0.0
    elif isinstance(problem.noise, AdditiveNoise):
        lip, sigma0_sq = 0.0, float(np.max(np.sum(problem.noise.values ** 2, axis=1)))
    else:
        lip = problem.noise.lipschitz
        sigma0_sq = float(np.sum(np.atleast_1d(problem.noise(np.zeros(1))) ** 2))
    c1 = f_sq + 2.0 * sigma0_sq
    c2 = float(np.max(np.abs(div))) + 1.0 + 2.0 * lip ** 2
    return (u0_sq + horizon * c1) * float(np.exp(horizon * c2))


# ----------------------------------------------------------------------
# the stability experiment (viscous ladder against a fine-mesh limit solve)
# ----------------------------------------------------------------------

@dataclass
class StabilityEntry:
    n: int
    lp_distance: float
    lp_stderr: float
    energy_sup: float          # E sup_t ||u_n||_{L^2}^2
    sigma_gap: float           # weak gap of the sigma(u) stochastic integral
    sigma_gap_stderr: float
    renorm_gap: float          # weak gap of the eta' sigma integral
    renorm_gap_stderr: float
    sign_monitor_violation: float  # most positive E[Y * int F] for F <= 0, Y >= 0
    monitors: dict = field(default_factory=dict)


@dataclass
class TransportStabilityReport:
    entries: list[StabilityEntry] = field(default_factory=list)
    energy_bound: float = 0.0
    monitors_ok: bool = True
    distances_ok: bool | None = None
    energy_ok: bool | None = None
    signs_ok: bool | None = None
    pairing_traces: dict = field(default_factory=dict)  # n -> (R, N_t+1, k) renorm traces
    tgrid: TimeGrid | None = None
    notes: list[str] = field(default_factory=list)

    def finalize(self) -> "TransportStabilityReport":
        d = [e.lp_distance for e in self.entries]
        self.distances_ok = all(d[i + 1] <= d[i] * (1 + 1e-9) for i in range(len(d) - 1)) \
            and d[-1] <= d[0] / 3.0
        self.energy_ok = all(e.energy_sup <= self.energy_bound for e in self.entries)
        self.signs_ok = all(e.sign_monitor_violation <= 0.0 for e in self.entries)
        return self


def _coefficient_distance(fa, fb, x: np.ndarray) -> float:
    a = np.asarray(fa(x), dtype=float) * np.ones_like(x)
    b = np.asarray(fb(x), dtype=float) * np.ones_like(x)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _ladder_grids(worst, limit, grid: TorusGrid, horizon: float, refine: int,
                  multiple_of: int) -> tuple[TimeGrid, TorusGrid, TimeGrid]:
    """Coarse time grid the most viscous member needs, and the reference meshes."""
    nt = steps_for_cfl(worst, grid, horizon, multiple_of=multiple_of)
    fine_grid = grid.refine(refine)
    fine_tgrid = TimeGrid(horizon, nt * refine)
    if cfl_number(limit, fine_grid, fine_tgrid.dt) > CFL_LIMIT:
        raise CFLError("limit problem violates CFL on the reference mesh")
    return TimeGrid(horizon, nt), fine_grid, fine_tgrid


def _check_monitors(report, monitor_rows: dict[int, dict], n_values: list[int]) -> None:
    """Flag hypothesis monitors (data_n -> data distances) that do not fall along the ladder."""
    for key in monitor_rows[n_values[0]]:
        vals = [monitor_rows[n][key] for n in n_values]
        if any(vals[i + 1] > vals[i] + 1e-12 for i in range(len(vals) - 1)):
            report.monitors_ok = False
            report.notes.append(f"hypothesis monitor {key} not improving along the ladder")


def _ladder_draws(fine_tgrid: TimeGrid, k: int, seed: int, replicas: int,
                  refine: int, schedule: CouplingSchedule):
    """Randomness of replicas 0..replicas-1 in a coupled ladder.

    Returns the fine increments, coupled(n) -> coarse increments of W_n (block
    sums of the fine ones, mixed with B), omega0, W_T and the test-variable
    matrix.
    """
    dWf = increment_chunk(fine_tgrid, k, seed, 0, replicas)
    dW = aggregate_increments(dWf, refine)
    if schedule.kind != "identity":
        dB = aggregate_increments(increment_chunk(fine_tgrid, k, seed, 0, replicas, stream=1),
                                  refine)
    omega0, _ = initial_chunk(seed, 0, replicas)

    def coupled(n):
        a = schedule.coefficient(n)
        return dW if a == 0.0 else (dW + a * dB) / np.sqrt(1.0 + a * a)

    w_final = dWf.sum(axis=1)[:, 0]
    w_half = dWf[:, : fine_tgrid.steps // 2, 0].sum(axis=1)
    ys = _test_variable_matrix(omega0, w_final, w_half, fine_tgrid.horizon)
    return dWf, coupled, omega0, w_final, ys


def _initial_state(problem, grid: TorusGrid, replicas: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(problem.u0(grid.x), dtype=float)
                           * np.ones(grid.cells), (replicas, grid.cells))


def _sigma_theta(problem: TransportProblem) -> Callable:
    """u -> sigma(u) of shape (..., cells, k), the integrand of the sigma pairing."""
    noise = problem.noise
    if isinstance(noise, AdditiveNoise):
        return lambda u: np.broadcast_to(noise.values, u.shape + (noise.k,))
    return noise


def _renorm_theta(problem: TransportProblem) -> Callable:
    """u -> u sigma(u), the eta' sigma integrand of the renormalised pairing."""
    sigma = _sigma_theta(problem)
    return lambda u: u[..., None] * sigma(u)


def _noise_once_per_state(problem):
    """A copy of a TransportProblem or claw.KineticProblem whose state noise is
    evaluated once per state of a march.

    The step and every pairing ask for sigma(u) of the same state array, which
    a march never writes to, so the copy gives back its last value while it is
    asked about that array: the same numbers from one evaluation per state.
    Additive or absent noise is returned as it is.
    """
    name = "noise" if isinstance(problem, TransportProblem) else "sigma"
    noise = getattr(problem, name)
    if not hasattr(noise, "fn"):
        return problem
    fn, last = noise.fn, [None, None]

    def once(u):
        if u is not last[0]:
            last[:] = u, fn(u)
        return last[1]
    return replace(problem, **{name: replace(noise, fn=once)})


def stability_experiment(problems: dict[int, TransportProblem],
                         limit: TransportProblem,
                         schedule: CouplingSchedule,
                         grid: TorusGrid, horizon: float,
                         replicas: int, seed: int,
                         psi: TestFunction | None = None,
                         refine: int = 4, snapshots: int = 64,
                         sign_slack: float = 3.0) -> TransportStabilityReport:
    """Viscous-ladder stability runs against the fine-mesh limit solve.

    The Brownian increments are sampled once on the fine time grid; coarse
    solves see their block sums, so every resolution reads the same path.
    """
    n_values = sorted(problems)
    if psi is None:
        psi = TestFunction.one(grid.cells)
    worst = problems[n_values[0]]
    tgrid, fine_grid, fine_tgrid = _ladder_grids(worst, limit, grid, horizon, refine,
                                                 multiple_of=snapshots)
    nt = tgrid.steps
    k = limit.k

    report = TransportStabilityReport(energy_bound=gronwall_energy_bound(worst, grid, horizon),
                                      tgrid=tgrid)

    # hypothesis monitors: data_n -> data in the configured (grid L^2) norms
    x = grid.x
    monitor_rows = {}
    for n in n_values:
        pn = problems[n]
        pn.check_divergence_consistency(grid)
        monitor_rows[n] = {
            "b": _coefficient_distance(pn.velocity, limit.velocity, x),
            "div_b": _coefficient_distance(pn.divergence, limit.divergence, x),
            "f": _coefficient_distance(pn.source, limit.source, x),
            "u0": _coefficient_distance(pn.u0, limit.u0, x),
        }
    _check_monitors(report, monitor_rows, n_values)

    snap_local = np.arange(0, nt + 1, nt // snapshots)
    snap_fine = snap_local * refine
    p = limit.p
    dx, dt = grid.dx, tgrid.dt
    snap_w = trapezoid_weights(len(snap_local), horizon / snapshots)

    dWf, coupled, omega0, w_final, ys = _ladder_draws(fine_tgrid, k, seed, replicas,
                                                      refine, schedule)
    psi_fine = spectral_prolong(psi.values, refine)
    limit = _noise_once_per_state(limit)
    ref = _march(limit, fine_grid, fine_tgrid, _initial_state(limit, fine_grid, replicas), dWf,
                 pairings={"sigma": (psi_fine, _sigma_theta(limit)),
                           "renorm": (psi_fine, _renorm_theta(limit))},
                 snap_idx=snap_fine)
    ref_snaps = ref["snapshots"][:, :, ::refine]
    ref_sigma = np.sum(ref["traces"]["sigma"][:, :-1, :] * dWf, axis=(1, 2))
    ref_renorm = np.sum(ref["traces"]["renorm"][:, :-1, :] * dWf, axis=(1, 2))
    nonneg = np.stack([np.ones(replicas), w_final ** 2, 1.0 + np.sin(2 * np.pi * omega0)], axis=1)

    for n in n_values:
        pn = _noise_once_per_state(problems[n])
        dWn = coupled(n)
        res = _march(pn, grid, tgrid, _initial_state(pn, grid, replicas), dWn,
                     pairings={"sigma": (psi.values, _sigma_theta(pn)),
                               "renorm": (psi.values, _renorm_theta(pn))},
                     snap_idx=snap_local)
        report.pairing_traces[n] = res["traces"]["renorm"]
        diff = res["snapshots"] - ref_snaps
        lp_pow = np.einsum("rsx,s->r", np.abs(diff) ** p, snap_w) * dx
        # coarse-node Ito sums of the paired integrands
        tr_sig = res["traces"]["sigma"][:, :-1, :]
        tr_ren = res["traces"]["renorm"][:, :-1, :]
        i_sigma = np.sum(tr_sig * dWn, axis=(1, 2)) - ref_sigma
        i_renorm = np.sum(tr_ren * dWn, axis=(1, 2)) - ref_renorm
        energy_sup = 2.0 * res["energy"].max(axis=1)
        # sign monitor: F = -int eta(u) dx <= 0 pathwise
        f_int = -np.sum(res["energy"], axis=1) * dt

        mean_pow, se_pow = mean_and_stderr(lp_pow)
        lp = mean_pow ** (1.0 / p)
        lp_se = se_pow / max(p * mean_pow ** (1.0 - 1.0 / p), 1e-300)
        sgap, sgap_se = max_y_gap(ys, i_sigma)
        rgap, rgap_se = max_y_gap(ys, i_renorm)
        worst_sign = -np.inf
        for col in range(nonneg.shape[1]):
            mval, se = mean_and_stderr(nonneg[:, col] * f_int)
            worst_sign = max(worst_sign, mval - sign_slack * se)
        report.entries.append(StabilityEntry(
            n, lp, lp_se, float(pairwise_sum(energy_sup) / replicas),
            sgap, sgap_se, rgap, rgap_se, worst_sign, monitor_rows[n]))
    return report.finalize()


def translation_ensembles(march: Callable, problem_of_n: Callable, theta_of: Callable,
                          psi_values: np.ndarray, n_values: list[int], grid: TorusGrid,
                          tgrid: TimeGrid, replicas: int, seed: int) -> dict[int, np.ndarray]:
    """Pairing traces t_j -> dx sum_i psi_i theta_n(u_n(t_j))_i per ladder member.

    march is the scheme (_march or claw._march_claw); theta_of(problem) gives
    the paired integrand. Every member reads the same Brownian increments.
    """
    out = {}
    for n in n_values:
        pn = _noise_once_per_state(problem_of_n(n))
        theta = theta_of(pn)
        dW = increment_chunk(tgrid, pn.k, seed, 0, replicas)
        res = march(pn, grid, tgrid, _initial_state(pn, grid, replicas), dW,
                    pairings={"trace": (psi_values, theta)})
        out[n] = res["traces"]["trace"]
    return out


def transport_translation_ensembles(problem_of_n: Callable[[int], TransportProblem],
                                    n_values: list[int], grid: TorusGrid,
                                    tgrid: TimeGrid, replicas: int, seed: int,
                                    psi: TestFunction | None = None) -> dict[int, np.ndarray]:
    """Renormalised-pairing traces (eta' sigma composition) for the rate fits."""
    if psi is None:
        psi = TestFunction.one(grid.cells)
    return translation_ensembles(_march, problem_of_n, _renorm_theta, psi.values, n_values,
                                 grid, tgrid, replicas, seed)
