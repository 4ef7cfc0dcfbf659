"""Finite-volume solver for stochastic transport/continuity equations on the torus.

The scheme is first-order and explicit: upwind interface fluxes for
div(b u), a centred second difference for the vanishing viscosity eps * Lap u,
forward Euler for the source, and a left-point (Euler-Maruyama) increment
sigma(u(t_j)) . dW_j for the noise. The flux form is conservative, so with
zero source and zero noise the spatial mean is constant per path to roundoff.

Stability experiments compare viscous solutions u_n (eps = 1/n, data_n,
coupled drivers W_n) against a fine-mesh solve of the inviscid limit problem
driven by the same Brownian realization. The increments are drawn once, on the
finest time grid any solve needs; every solve marches on its own divisor grid
of it, the coarsest its CFL target allows, and reads block sums of the draw,
so all solves read one path (the fine/coarse coupling of multilevel Monte
Carlo). The mesh refinement of the reference is spatial only, and the
reference is checked against its refinement in time and in space by reported
rows. The experiment records L^p(Omega x [0,T] x T^1) distances, the uniform
energy bound against its Gronwall constant, the weak gaps of the two
stochastic integrals the renormalisation argument needs (the sigma(u) pairing
and the eta' sigma pairing), and sign monitors for weak limits of
sign-definite statistics. It measures only: the thresholds that turn these
measurements into verdicts are written once, in cli.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._util import (max_y_gap, mean_and_stderr, pairwise_sum, periodic_shift,
                    trapezoid_weights)
from .errors import CFLError, ConfigurationError, SolverBlowupError
from .processes import (ExponentSet, TestFunction, _test_variables,
                        spectral_derivative, spectral_prolong)
from .wiener import (CouplingSchedule, ReplicaBatch, TimeGrid, WienerPath,
                     increment_chunk)

CFL_LIMIT = 0.9
CFL_TARGET = 0.45  # the CFL number steps_for_cfl aims at
# size of the buffer in which the step loop gathers per-cell integrands between
# reductions: 1 MiB of doubles
BLOCK_DOUBLES = (1 << 20) // 8
# replicas the reference-convergence solves of a ladder run on
REFERENCE_PROBE = 16


@dataclass(frozen=True)
class TorusGrid:
    """Periodic grid on the unit torus, nodes x_i = i / cells."""

    cells: int

    def __post_init__(self):
        if self.cells < 16:
            raise ConfigurationError(f"need at least 16 cells, got {self.cells}")

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
        return TorusGrid(self.cells * factor)


@dataclass(frozen=True)
class StateNoise:
    """Noise coefficient u -> sigma(u) in R^k of both solvers, globally Lipschitz.

    fn maps u of shape (...) to sigma(u) of shape (..., k) whose components
    sigma(u)[..., c] are each C-contiguous: a (k,) + u.shape array seen through
    a transpose that moves its first axis last, so every product with one
    component is a contiguous pass. dfn gives d sigma/du, shape (..., k);
    lipschitz is the sup of |dfn|.
    """

    fn: Callable[[np.ndarray], np.ndarray]   # (...,) -> (..., k)
    dfn: Callable[[np.ndarray], np.ndarray]  # (...,) -> (..., k)
    k: int
    lipschitz: float
    bound: float  # sup |sigma|, used for kinetic windows and Gronwall constants

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(u)


def _smooth_noise(amplitude: float, frequency: float, tilt: float) -> StateNoise:
    """sigma(u) = amplitude (sin(f u + tilt), cos(f u)).

    |dfn|^2 = (a f)^2 (1 - sin(2 f u + tilt) sin(tilt)), whose sup gives the
    Lipschitz constant. The tilt enters fn only when it is nonzero.
    """
    def fn(u):
        fu = frequency * u
        out = np.empty((2,) + np.shape(fu))
        np.sin(fu + tilt if tilt else fu, out=out[0, ...])
        np.cos(fu, out=out[1, ...])
        out *= amplitude
        return out.transpose(*range(1, out.ndim), 0)

    def dfn(u):
        fu = frequency * np.asarray(u, dtype=float)
        return amplitude * frequency * np.stack([np.cos(fu + tilt), -np.sin(fu)], axis=-1)

    return StateNoise(fn, dfn, 2, abs(amplitude * frequency) * np.sqrt(1.0 + abs(np.sin(tilt))),
                      abs(amplitude) * np.sqrt(2.0))


def bounded_smooth_noise(amplitude: float, frequency: float = 1.0) -> StateNoise:
    """sigma(v) = amplitude * (sin(f v), cos(f v)): C^{1,1}, bounded, Lipschitz.

    Bounded second derivative keeps the technical growth condition on the
    noise coefficient satisfied for every p >= 3.
    """
    return _smooth_noise(amplitude, frequency, 0.0)


@dataclass(frozen=True)
class TransportProblem:
    """Data tuple (b, div b, f, sigma, eps, u0) for the continuity equation."""

    velocity: Callable[[np.ndarray], np.ndarray]       # b(x)
    divergence: Callable[[np.ndarray], np.ndarray]     # div b(x)
    source: Callable[[np.ndarray], np.ndarray]         # f(x)
    sigma: StateNoise | None
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
        return 1 if self.sigma is None else self.sigma.k

    def max_wave_speed(self, grid: TorusGrid) -> float:
        b = np.abs(np.asarray(self.velocity(grid.x_interfaces), dtype=float))
        return float(np.max(b)) if b.ndim else float(b)

    def check_divergence_consistency(self, grid: TorusGrid) -> float:
        """Spectral-derivative check of div b against b on the grid."""
        b = np.asarray(self.velocity(grid.x), dtype=float) * np.ones(grid.cells)
        div = np.asarray(self.divergence(grid.x), dtype=float) * np.ones(grid.cells)
        err = float(np.max(np.abs(spectral_derivative(b, 1) - div)))
        if err > 1e-6 * max(1.0, float(np.max(np.abs(div)))):
            raise ConfigurationError(f"div b inconsistent with b: spectral residual {err:.2e}")
        return err


def cfl_number(problem, grid: TorusGrid, dt: float) -> float:
    """Advective plus viscous CFL number of an explicit scheme.

    problem is a TransportProblem or a claw.KineticProblem: anything with
    max_wave_speed(grid) and epsilon.
    """
    speed = problem.max_wave_speed(grid)
    return speed * dt / grid.dx + 2.0 * problem.epsilon * dt / grid.dx ** 2


def steps_for_cfl(problem, grid: TorusGrid, horizon: float, multiple_of: int = 1) -> int:
    """Smallest step count (rounded to a multiple) meeting CFL_TARGET."""
    speed = problem.max_wave_speed(grid)
    rate = speed / grid.dx + 2.0 * problem.epsilon / grid.dx ** 2
    steps = int(np.ceil(horizon * rate / CFL_TARGET))
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

    Each node writes its per-cell integrands (u * u for the energy, psi times
    each component of theta(u) for the pairings) into one slot of a buffer of
    BLOCK_DOUBLES doubles, cells last. When the buffer is full, and after the
    last node, one pairwise_sum over cells reduces the whole block: the same
    tree order per row as a reduction per node, so the same bits as
    _energy_of and _pair_theta of each state.
    """
    dx, nt = grid.dx, tgrid.steps
    cfl = cfl_number(problem, grid, tgrid.dt)
    if cfl > CFL_LIMIT:
        raise CFLError(f"CFL number {cfl:.3f} exceeds {CFL_LIMIT}")
    u = np.array(u0, dtype=float, copy=True)
    lead = u.shape[:-1]

    out: dict = {}
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

    def components(theta, u):
        """theta(u) with its components on a trailing axis, (..., cells, k)."""
        probe = theta(u)
        return probe if probe.ndim > u.ndim else probe[..., None]

    # buffer rows: the energy, then the components of each pairing in turn
    probes = [components(theta, u) for _, theta in pairings.values()]
    widths = [probe.shape[-1] for probe in probes]
    starts = [1 + sum(widths[:i]) for i in range(len(widths))]
    rows = 1 + sum(widths)
    block = min(nt + 1, max(1, BLOCK_DOUBLES // (rows * u.size)))
    buf = np.empty(lead + (rows, block, grid.cells))
    energy = out["energy"] = np.empty(lead + (nt + 1,))
    traces = {name: np.empty(lead + (nt + 1, kk)) for name, kk in zip(pairings, widths)}

    def record(node, u, probes):
        slot = node % block
        np.multiply(u, u, out=buf[..., 0, slot, :])
        for (psi, _), probe, r, kk in zip(pairings.values(), probes, starts, widths):
            for c in range(kk):
                np.multiply(psi, probe[..., c], out=buf[..., r + c, slot, :])
        if slot == block - 1 or node == nt:
            lo, hi = node - slot, node + 1
            sums = pairwise_sum(buf[..., :slot + 1, :], axis=-1)
            energy[..., lo:hi] = sums[..., 0, :] * (0.5 * dx)
            for trace, r, kk in zip(traces.values(), starts, widths):
                trace[..., lo:hi, :] = sums[..., r:r + kk, :].swapaxes(-1, -2) * dx

    record(0, u, probes)
    for j in range(nt):
        u_new = step(j, u)
        if not np.isfinite(u_new).all():
            raise SolverBlowupError(j)
        if after_step is not None:
            after_step(j, u, u_new)
        u = u_new
        if store_full:
            full[j + 1] = u
        if (j + 1) in snap_pos:
            snaps[..., snap_pos[j + 1], :] = u
        record(j + 1, u, [components(theta, u) for _, theta in pairings.values()])

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
    sigma = problem.sigma if dW is not None else None
    # step invariants; -dt * div + eps * dt * lap groups as (-dt) * div + (eps * dt) * lap
    source, visc, dx2 = dt * f_cells, problem.epsilon * dt, dx ** 2

    def step(j, u):
        right = periodic_shift(u, -1)
        flux = bp * u + bm * right
        div = (flux - periodic_shift(flux, 1)) / dx
        lap = (right - 2.0 * u + periodic_shift(u, 1)) / dx2
        incr = -dt * div + visc * lap + source
        if sigma is not None:
            incr = incr + _noise_increment(sigma(u), dW[..., j, :])
        return u + incr

    return _explicit_march(problem, grid, tgrid, u0, step, pairings, store_full, snap_idx)


def _noise_increment(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sum_c sigma[..., c] * dw[..., c, None] for sigma (..., cells, k) and dw
    (..., k), summed in component order."""
    incr = sigma[..., 0] * dw[..., 0, None]
    for c in range(1, sigma.shape[-1]):
        incr = incr + sigma[..., c] * dw[..., c, None]
    return incr


def _pair_theta(psi: np.ndarray, probe: np.ndarray, u_ndim: int, dx: float) -> np.ndarray:
    if probe.ndim == u_ndim:        # scalar theta
        probe = probe[..., None]
    return pairwise_sum(psi[:, None] * probe, axis=-2) * dx


def solve_transport(problem: TransportProblem, W: WienerPath, grid: TorusGrid) -> FieldPath:
    """One path of the explicit scheme, with full field storage."""
    u0 = np.asarray(problem.u0(grid.x), dtype=float) * np.ones(grid.cells)
    dW = W.increments if problem.sigma is not None else None
    if problem.sigma is not None and W.dimension != problem.k:
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
    if problem.sigma is not None:
        paired = np.einsum("x,jxk->jk", phi.values, problem.sigma(u[:J])) * dx
        noise_term = float(np.sum(paired * W.increments[:J]))
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


def gronwall_energy_bound(problem: TransportProblem, grid: TorusGrid, horizon: float) -> float:
    """Continuum Gronwall majorant for E sup_t ||u(t)||_{L^2}^2.

    d/dt E||u||^2 <= (||div b||_inf + 1 + 2 L^2) E||u||^2 + ||f||^2 + 2|sigma(0)|^2,
    so the bound is (||u_0||^2 + T c_1) exp(T c_2).
    """
    div = np.asarray(problem.divergence(grid.x), dtype=float) * np.ones(grid.cells)
    f = np.asarray(problem.source(grid.x), dtype=float) * np.ones(grid.cells)
    u0 = np.asarray(problem.u0(grid.x), dtype=float) * np.ones(grid.cells)
    u0_sq = float(np.mean(u0 ** 2))
    f_sq = float(np.mean(f ** 2))
    if problem.sigma is None:
        lip, sigma0_sq = 0.0, 0.0
    else:
        lip = problem.sigma.lipschitz
        sigma0_sq = float(np.sum(problem.sigma(np.zeros(1)) ** 2))
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
    monitors: dict = field(default_factory=dict)  # data_n -> data distances


@dataclass
class LadderReport:
    """Measurements of a transport or kinetic ladder: one entry per n, the
    reference's distance from its refinement in "time" and "space" on the probe
    replicas, and the Gronwall energy majorant (transport only)."""

    entries: list = field(default_factory=list)
    reference_errors: dict = field(default_factory=dict)
    energy_bound: float | None = None


def _coefficient_distance(fa, fb, x: np.ndarray) -> float:
    a = np.asarray(fa(x), dtype=float) * np.ones_like(x)
    b = np.asarray(fb(x), dtype=float) * np.ones_like(x)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _smooth_at_least(q: int) -> int:
    """Smallest 3-smooth number 2^a 3^b that is >= q; 2^q.bit_length() bounds a and b."""
    bits = range(q.bit_length() + 1)
    return min(2 ** a * 3 ** b for a in bits for b in bits if 2 ** a * 3 ** b >= q)


def _divisor_at_least(total: int, base: int, need: int) -> int:
    """Smallest divisor of total that is a multiple of base and >= need."""
    return next(d for d in range(base, total + 1, base) if total % d == 0 and d >= need)


def _shared_draw(problems: dict, limit, grid: TorusGrid, horizon: float, refine: int,
                 multiple_of: int, seed: int, replicas: int):
    """The randomness of a coupled ladder, drawn once, and the time grid of each solve.

    The solves are the members on `grid`, the reference (the limit on
    grid.refine(refine)) and the reference-convergence pair: the limit on that
    mesh and on grid.refine(2 * refine). W, B and omega0 are drawn on the
    `finest` grid: the smallest multiple of multiple_of whose quotient by it
    is 3-smooth and that is at or above every solve's steps_for_cfl count (and
    three times the reference's, so that some multiple of the reference's
    grid, at least twice as fine, divides it). Each member and the reference
    march on the smallest divisor of `finest` that is a multiple of
    multiple_of and meets their own CFL target; the pair marches on the
    smallest divisor that is a multiple of the reference's grid, at least
    twice as fine and within the CFL target of the finer mesh. Every solve
    reads block sums of the finest increments (ReplicaBatch.on).

    Returns the ReplicaBatch of replicas [0, replicas) on the finest grid, the
    members' time grids by n, the reference's and the convergence pair's.
    """
    def count(problem, mesh):
        return steps_for_cfl(problem, mesh, horizon, multiple_of=multiple_of)

    counts = {n: count(problems[n], grid) for n in sorted(problems)}
    ref_count = count(limit, grid.refine(refine))
    check_count = count(limit, grid.refine(2 * refine))
    need = max(*counts.values(), check_count, 3 * ref_count)
    finest = multiple_of * _smooth_at_least(-(-need // multiple_of))

    def on(base, least):
        return TimeGrid(horizon, _divisor_at_least(finest, base, least))

    ref = on(multiple_of, ref_count)
    check = on(ref.steps, max(2 * ref.steps, check_count))
    batch = ReplicaBatch(TimeGrid(horizon, finest), limit.k, seed, 0, replicas)
    return batch, {n: on(multiple_of, c) for n, c in counts.items()}, ref, check


def _initial_state(problem, grid: TorusGrid, replicas: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(problem.u0(grid.x), dtype=float)
                           * np.ones(grid.cells), (replicas, grid.cells))


def _renorm_theta(problem: TransportProblem) -> Callable:
    """u -> u sigma(u), the eta' sigma integrand of the renormalised pairing."""
    sigma = problem.sigma
    return lambda u: u[..., None] * sigma(u)


def _noise_once_per_state(problem):
    """A copy of a TransportProblem or claw.KineticProblem whose sigma is
    evaluated once per state of a march.

    The step and every pairing ask for sigma(u) of the same state array, which
    a march never writes to, so the copy gives back its last value while it is
    asked about that array: the same numbers from one evaluation per state.
    A problem without noise is returned as it is.
    """
    if problem.sigma is None:
        return problem
    fn, last = problem.sigma.fn, [None, None]

    def once(u):
        if u is not last[0]:
            last[:] = u, fn(u)
        return last[1]
    return replace(problem, sigma=replace(problem.sigma, fn=once))


def stability_experiment(problems: dict[int, TransportProblem],
                         limit: TransportProblem,
                         schedule: CouplingSchedule,
                         grid: TorusGrid, horizon: float,
                         replicas: int, seed: int,
                         refine: int = 4, snapshots: int = 64) -> LadderReport:
    """Viscous-ladder stability runs against the fine-mesh limit solve.

    The Brownian increments are drawn once, on the finest time grid any solve
    needs (_shared_draw); each member on `grid` and the reference, the limit
    on grid.refine(refine), march on their own divisor grids of it and read
    block sums of the draw, so every solve reads the same path. refine refines
    space only. The L^p distance compares the `snapshots` nodes all the grids
    share; every Ito sum and time integral uses its own solve's grid. The
    reference's distances from its refinement in time and in space are
    measured on the first REFERENCE_PROBE replicas. The thresholds these
    measurements are judged by live in cli.py.

    The pairings test against psi = 1. The sign monitor scores
    F = -int eta(u) dx dt <= 0 against nonnegative Y by the largest
    mean(Y F) - 3 stderr. F <= 0 pathwise and Y >= 0, so the score is never
    positive: it is a consistency check that cannot fail, and it reads -inf
    at one replica, where the stderr is inf.
    """
    n_values = sorted(problems)
    psi = np.ones(grid.cells)
    worst = problems[n_values[0]]
    report = LadderReport(energy_bound=gronwall_energy_bound(worst, grid, horizon))

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

    batch, tgrids, ref_tgrid, check_tgrid = _shared_draw(
        problems, limit, grid, horizon, refine, snapshots, seed, replicas)
    p, dx = limit.p, grid.dx
    snap_w = trapezoid_weights(snapshots + 1, horizon / snapshots)

    def march(problem, r, tgrid, dW, paired=True):
        """Solve on grid.refine(r): the result, its snapshots on the `grid`
        nodes, and the Ito sums of the sigma and renorm pairings."""
        mesh = grid.refine(r)
        psi_r = psi if r == 1 else spectral_prolong(psi, r)
        problem = _noise_once_per_state(problem)
        pairings = {"sigma": (psi_r, problem.sigma),
                    "renorm": (psi_r, _renorm_theta(problem))} if paired else None
        res = _march(problem, mesh, tgrid, _initial_state(problem, mesh, len(dW)), dW,
                     pairings=pairings,
                     snap_idx=np.arange(0, tgrid.steps + 1, tgrid.steps // snapshots))
        ito = {name: np.sum(trace[:, :-1, :] * dW, axis=(1, 2))
               for name, trace in res.get("traces", {}).items()}
        return res, res["snapshots"][:, :, ::r], ito

    def lp_distance(a, b):
        lp_pow = np.einsum("rsx,s->r", np.abs(a - b) ** p, snap_w) * dx
        mean_pow, se_pow = mean_and_stderr(lp_pow)
        return mean_pow ** (1.0 / p), se_pow / max(p * mean_pow ** (1.0 - 1.0 / p), 1e-300)

    _, ref_snaps, ref_ito = march(limit, refine, ref_tgrid, batch.on(ref_tgrid).W.increments)
    ys = _test_variables(batch)
    w_final, omega0 = batch.W.values[:, -1, 0], batch.omega0
    nonneg = np.stack([np.ones(replicas), w_final ** 2, 1.0 + np.sin(2 * np.pi * omega0)], axis=1)

    for n in n_values:
        tgrid = tgrids[n]
        res, snaps, ito = march(problems[n], 1, tgrid,
                                batch.on(tgrid).coupled(schedule, n).increments)
        lp, lp_se = lp_distance(snaps, ref_snaps)
        i_sigma = ito["sigma"] - ref_ito["sigma"]
        i_renorm = ito["renorm"] - ref_ito["renorm"]
        energy_sup = 2.0 * res["energy"].max(axis=1)
        # sign monitor: F = -int eta(u) dx <= 0 pathwise
        f_int = -np.sum(res["energy"], axis=1) * tgrid.dt

        sgap, sgap_se = max_y_gap(ys, i_sigma)
        rgap, rgap_se = max_y_gap(ys, i_renorm)
        worst_sign = -np.inf
        for col in range(nonneg.shape[1]):
            mval, se = mean_and_stderr(nonneg[:, col] * f_int)
            worst_sign = max(worst_sign, mval - 3.0 * se)
        report.entries.append(StabilityEntry(
            n, lp, lp_se, float(pairwise_sum(energy_sup) / replicas),
            sgap, sgap_se, rgap, rgap_se, worst_sign, monitor_rows[n]))

    probe = batch.head(min(replicas, REFERENCE_PROBE))
    dW = probe.on(check_tgrid).W.increments
    _, in_time, _ = march(limit, refine, check_tgrid, dW, paired=False)
    _, in_space, _ = march(limit, 2 * refine, check_tgrid, dW, paired=False)
    report.reference_errors = {"time": lp_distance(ref_snaps[:len(probe)], in_time)[0],
                               "space": lp_distance(in_time, in_space)[0]}
    return report


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
                                    tgrid: TimeGrid, replicas: int,
                                    seed: int) -> dict[int, np.ndarray]:
    """Renormalised-pairing traces (eta' sigma composition) against psi = 1, for
    the rate fits."""
    return translation_ensembles(_march, problem_of_n, _renorm_theta, np.ones(grid.cells),
                                 n_values, grid, tgrid, replicas, seed)
