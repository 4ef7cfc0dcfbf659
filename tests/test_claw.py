import numpy as np
import pytest
from test_transport import check_shared_draw, record_marches

from stochlab import claw
from stochlab.claw import (KineticProblem, KineticTestFunction, SigmaXi,
                           _march_claw, bounded_smooth_sigma, bump_test_function,
                           burgers_riemann, claw_translation_ensembles,
                           constant_sigma, cubic_flux, kinetic_function,
                           kinetic_residual, kinetic_stability_experiment,
                           ito_pairing_fn, kinetic_window, linear_flux,
                           quadratic_flux, shock_position, solve_claw)
from stochlab.errors import (CFLError, ConfigurationError, RangeEscapeError)
from stochlab.processes import TestFunction
from stochlab.translation import fit_translation_rate, standard_lag_ladder
from stochlab.transport import (TorusGrid, TransportProblem, _initial_state, _march,
                                _shared_draw, bounded_smooth_noise, steps_for_cfl)
from stochlab.wiener import CouplingSchedule, TimeGrid, increment_chunk, sample_wiener

GRID = TorusGrid(64)


def still_kinetic(eps=0.0, sigma=None, u0=None, window=(-2.0, 2.0)):
    return KineticProblem(
        flux=linear_flux(0.0), sigma=sigma, epsilon=eps,
        u0=u0 or (lambda x: 0.5 * np.sin(2 * np.pi * x)),
        xi_min=window[0], xi_max=window[1])


def burgers_problem(eps=0.0, sigma=None, u0=None, window=(-0.6, 1.6), n_xi=64):
    return KineticProblem(
        flux=quadratic_flux(), sigma=sigma, epsilon=eps,
        u0=u0 or burgers_riemann(),
        xi_min=window[0], xi_max=window[1], n_xi=n_xi)


def test_flux_families_split_consistency():
    for fam in (quadratic_flux(), quadratic_flux(1.3, 0.4), linear_flux(0.8),
                linear_flux(-0.8), cubic_flux(0.6)):
        assert fam.split_consistency((-2.0, 2.0)) < 1e-10
        fam.check_derivative_consistency((-2.0, 2.0))


def test_static_problem_keeps_field_and_produces_no_mass():
    P = still_kinetic()
    W = sample_wiener(TimeGrid(0.5, 128), 1, seed=1, replica=0)
    path, measure = solve_claw(P, W, GRID)
    assert np.all(path.values == path.values[0][None, :])
    assert measure.total_mass() == 0.0


def test_burgers_shock_speed_rankine_hugoniot():
    # Riemann datum (1, 0): shock speed (F(1)-F(0))/(1-0) = 1/2
    T = 0.3
    P = burgers_problem()
    nt = steps_for_cfl(P, GRID, T, multiple_of=16)
    W = sample_wiener(TimeGrid(T, nt), 1, seed=2, replica=0)
    path, _ = solve_claw(P, W, GRID)
    x0 = shock_position(path, 0)
    xT = shock_position(path, nt)
    speed = (xT - x0) / T
    assert abs(speed - 0.5) <= 2.0 * GRID.dx / T


def test_rarefaction_carries_vanishing_mass_under_refinement():
    # entropy solutions put no defect on rarefaction fans: the mass in a
    # fixed window inside the fan (away from its origin and from the shock
    # track) falls by >= 1.5 per mesh halving
    T = 0.2
    masses = []
    for cells in (64, 128):
        grid = TorusGrid(cells)
        P = burgers_problem(u0=burgers_riemann(levels=(0.0, 1.0), jump_at=(0.05, 0.55)))
        nt = steps_for_cfl(P, grid, T, multiple_of=16)
        W = sample_wiener(TimeGrid(T, nt), 1, seed=3, replica=0)
        _, measure = solve_claw(P, W, grid)
        masses.append(measure.mass_in_window((0.60, 0.70), cells))
    assert masses[0] / masses[1] >= 1.5


def test_kinetic_function_invariants():
    P = burgers_problem()
    W = sample_wiener(TimeGrid(0.2, steps_for_cfl(P, GRID, 0.2, multiple_of=16)),
                      1, seed=4, replica=0)
    path, _ = solve_claw(P, W, GRID)
    field = kinetic_function(path.values, P)
    chi = field.indicator()
    assert chi.dtype == np.uint8
    assert set(np.unique(chi)) <= {0, 1}
    assert np.all(np.diff(chi.astype(int), axis=-1) <= 0)  # nonincreasing in xi
    # layer cake: int_0^ximax chi dxi = max(u, 0) up to a bin width
    dxi = P.xi_centers[1] - P.xi_centers[0]
    for node in (0, path.tgrid.steps // 2, path.tgrid.steps):
        cake = field.layer_cake(node)
        target = np.maximum(path.values[node], 0.0)
        assert np.max(np.abs(cake - target)) <= dxi + 1e-12


def test_kinetic_function_symmetric_window_sign_structure():
    P = still_kinetic(u0=lambda x: np.zeros_like(x))
    field = kinetic_function(np.zeros((3, GRID.cells)), P)
    chi = field.indicator(0)
    assert np.all(chi[:, P.xi_centers < 0] == 1)
    assert np.all(chi[:, P.xi_centers >= 0] == 0)


def test_range_escape_aborts():
    P = burgers_problem(window=(-0.05, 1.05), sigma=constant_sigma(np.array([2.0])))
    nt = steps_for_cfl(P, GRID, 0.3, multiple_of=16)
    W = sample_wiener(TimeGrid(0.3, nt), 1, seed=5, replica=0)
    with pytest.raises(RangeEscapeError):
        solve_claw(P, W, GRID)


def test_cfl_rejection():
    P = burgers_problem(eps=0.5)
    W = sample_wiener(TimeGrid(0.3, 64), 1, seed=6, replica=0)
    with pytest.raises(CFLError):
        solve_claw(P, W, GRID)


def test_measure_nonnegative_and_clamp_small():
    P = burgers_problem(eps=0.02)
    nt = steps_for_cfl(P, GRID, 0.2, multiple_of=16)
    W = sample_wiener(TimeGrid(0.2, nt), 1, seed=7, replica=0)
    _, measure = solve_claw(P, W, GRID)
    assert np.all(measure.kappa_cum >= 0.0)
    assert np.all(measure.parabolic_cum >= 0.0)
    assert measure.total_mass() > 0.0
    # monotone scheme under CFL: the entropy inequality holds, clipping is noise
    assert abs(measure.clamped_negative) <= 1e-10 * max(1.0, measure.total_mass())


def test_deterministic_maximum_principle():
    P = burgers_problem()
    nt = steps_for_cfl(P, GRID, 0.3, multiple_of=16)
    W = sample_wiener(TimeGrid(0.3, nt), 1, seed=8, replica=0)
    path, _ = solve_claw(P, W, GRID)
    assert path.values.min() >= 0.0 - 1e-10
    assert path.values.max() <= 1.0 + 1e-10


def make_phi(cells=64, lo=-0.4, hi=1.4):
    psi = TestFunction.from_callable(cells, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    return bump_test_function(psi, lo, hi)


def test_kinetic_residual_static_case_vanishes():
    P = still_kinetic(u0=lambda x: 0.3 * np.ones_like(x))
    W = sample_wiener(TimeGrid(0.5, 128), 1, seed=9, replica=0)
    path, measure = solve_claw(P, W, GRID)
    phi = make_phi(lo=-1.5, hi=1.5)
    res = kinetic_residual(path, measure, P, W, phi, 0.5)
    assert abs(res) <= 1e-10


def test_kinetic_residual_refines_on_burgers_shock():
    T = 0.2
    residuals = []
    for cells in (64, 128):
        grid = TorusGrid(cells)
        P = burgers_problem()
        nt = steps_for_cfl(P, grid, T, multiple_of=16)
        W = sample_wiener(TimeGrid(T, nt), 1, seed=10, replica=0)
        path, measure = solve_claw(P, W, grid)
        phi = make_phi(cells=cells)
        residuals.append(abs(kinetic_residual(path, measure, P, W, phi, T)))
    assert residuals[0] / residuals[1] >= 1.5


def test_ito_pairing_matches_direct_evaluation_for_constant_sigma():
    # d_xi chi = -delta_u: the d_xi(phi sigma) pairing is phi(x, u) sigma
    sigma0 = np.array([0.25])
    P = burgers_problem(sigma=constant_sigma(sigma0), window=(-1.2, 2.2))
    nt = steps_for_cfl(P, GRID, 0.2, multiple_of=16)
    W = sample_wiener(TimeGrid(0.2, nt), 1, seed=11, replica=0)
    path, _ = solve_claw(P, W, GRID)
    phi = make_phi(lo=-1.0, hi=2.0)
    from stochlab.claw import ito_pairing_fn
    fn = ito_pairing_fn(P, phi)
    u = path.values[37]
    paired = GRID.dx * np.einsum("x,xk->k", phi.psi.values, fn(u))
    direct = GRID.dx * np.sum(phi.psi.values * phi.zeta(u)) * sigma0
    assert np.max(np.abs(paired - direct)) <= 1e-12


def test_residual_with_noise_at_scheme_scale():
    # stochastic run: the residual is O(dt) in mean thanks to the Ito
    # correction term; a coarse bound guards against sign errors
    P = burgers_problem(sigma=bounded_smooth_sigma(0.1), eps=0.01,
                        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
                        window=(-0.9, 1.9))
    nt = steps_for_cfl(P, GRID, 0.2, multiple_of=16)
    vals = []
    for r in range(48):
        W = sample_wiener(TimeGrid(0.2, nt), 2, seed=12, replica=r)
        path, measure = solve_claw(P, W, GRID)
        phi = make_phi(lo=-0.7, hi=1.7)
        vals.append(kinetic_residual(path, measure, P, W, phi, 0.2))
    vals = np.asarray(vals)
    assert abs(vals.mean()) <= 3 * vals.std() / np.sqrt(len(vals)) + 2e-3


def make_kinetic_ladder(n):
    return KineticProblem(
        flux=quadratic_flux(1.0 + 1.0 / n, 0.5 / n),
        sigma=bounded_smooth_sigma(0.12 * (1.0 + 1.0 / n), 1.0, linear_tilt=0.5 / n),
        epsilon=1.0 / n,
        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
        xi_min=-1.2, xi_max=2.2)


def make_kinetic_limit():
    return KineticProblem(
        flux=quadratic_flux(), sigma=bounded_smooth_sigma(0.12),
        epsilon=0.0,
        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
        xi_min=-1.2, xi_max=2.2)


def test_kinetic_stability_reduced_scale():
    psi = TestFunction.from_callable(32, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    phi = bump_test_function(psi, -0.9, 1.9)
    report = kinetic_stability_experiment(
        {n: make_kinetic_ladder(n) for n in (2, 8, 16)}, make_kinetic_limit(),
        CouplingSchedule(), TorusGrid(32), horizon=0.15,
        replicas=48, seed=13, phi=phi, refine=2)
    for key in report.entries[0].monitors:
        vals = [e.monitors[key] for e in report.entries]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    masses = [e.total_mass for e in report.entries]
    assert max(masses) <= 3.0 * min(masses)
    gaps = [e.ito_gap for e in report.entries]
    assert gaps[-1] <= gaps[0] / 3.0


def test_kinetic_ladder_solves_share_one_finest_draw(monkeypatch):
    ladder, limit, grid = ({n: make_kinetic_ladder(n) for n in (2, 8, 16)},
                           make_kinetic_limit(), TorusGrid(32))
    psi = TestFunction.from_callable(32, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    batch, tgrids, ref, check = _shared_draw(ladder, limit, grid, 0.15, 2, 16, 13, 4)
    solves = record_marches(monkeypatch, claw, "_march_claw")
    report = kinetic_stability_experiment(ladder, limit, CouplingSchedule(), grid, horizon=0.15,
                                          replicas=4, seed=13,
                                          phi=bump_test_function(psi, -0.9, 1.9), refine=2)
    assert [(g.cells, t.steps) for _, g, t, _ in solves] == (
        [(64, ref.steps)] + [(32, tgrids[n].steps) for n in (2, 8, 16)]
        + [(64, check.steps), (128, check.steps)])
    assert check.steps == 2 * ref.steps
    check_shared_draw(solves, batch.grid, 16, 13, 32, CouplingSchedule())
    assert set(report.reference_errors) == {"time", "space"}


def test_kinetic_shared_draw_at_the_acceptance_scale():
    from stochlab.cli import _claw_problem, apply_defaults
    p = apply_defaults("claw", {"seed": 1, "samples": 2})
    batch, tgrids, ref, check = _shared_draw(
        {n: _claw_problem(p, n) for n in (2, 8, 16)}, _claw_problem(p, None),
        TorusGrid(64), 0.2, 4, 16, 1, 2)
    assert batch.grid.steps == 2048
    assert [tgrids[n].steps for n in (2, 8, 16)] == [2048, 1024, 512]
    assert (ref.steps, check.steps) == (256, 512)


def test_claw_translation_slopes():
    tgrid = TimeGrid(1.0, 1024)
    grid = TorusGrid(32)
    psi = TestFunction.from_callable(32, lambda x: np.ones_like(x))
    phi = bump_test_function(psi, -0.9, 1.9)

    def prob(n):
        return KineticProblem(
            flux=quadratic_flux(), sigma=bounded_smooth_sigma(0.25),
            epsilon=1.0 / n, u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
            xi_min=-1.2, xi_max=2.2)

    ens = claw_translation_ensembles(prob, [64, 128], grid, tgrid,
                                     replicas=128, seed=14, phi=phi)
    traces = {n: v for n, v in ens.items()}
    fit = fit_translation_rate(traces, tgrid, standard_lag_ladder(tgrid))
    assert fit.worst_slope() >= 0.4
    assert np.all(fit.uniform_ratio <= 1.5)


def test_claw_translation_ensembles_evaluate_sigma_once_per_state():
    # the noise step and the Ito pairing read sigma(u) of the same state: each
    # march evaluates it once per time node, and the traces equal those of a
    # march that evaluates it at every use, bit for bit
    base = bounded_smooth_sigma(0.25)
    calls = []

    def counted(xi):
        calls.append(1)
        return base.fn(xi)
    sigma = SigmaXi(counted, base.dfn, base.k, base.bound)
    tgrid, grid, replicas, seed = TimeGrid(0.25, 256), TorusGrid(32), 3, 6
    phi = bump_test_function(TestFunction.one(32), -0.9, 1.9)

    def prob(n):
        return KineticProblem(
            flux=quadratic_flux(), sigma=sigma, epsilon=1.0 / n,
            u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x), xi_min=-1.2, xi_max=2.2)

    ens = claw_translation_ensembles(prob, [4, 8], grid, tgrid, replicas, seed, phi)
    # building a KineticProblem checks sigma's derivative with two calls; each
    # n builds the problem and its once-per-state copy
    checks = 2 * 2 * 2
    assert len(calls) == checks + 2 * (tgrid.steps + 1)
    for n in (4, 8):
        pn = prob(n)
        direct = _march_claw(pn, grid, tgrid, _initial_state(pn, grid, replicas),
                             increment_chunk(tgrid, pn.k, seed, 0, replicas),
                             pairings={"trace": (phi.psi.values, ito_pairing_fn(pn, phi))})
        assert np.array_equal(ens[n], direct["traces"]["trace"])


def test_upwind_and_engquist_osher_marchers_agree_on_linear_transport():
    # F(u) = c u with c > 0: the Engquist-Osher flux is the upwind flux, so the
    # two marchers run one scheme; only the float order of the update differs
    c, eps, amplitude, T = 0.7, 0.02, 0.2, 0.3
    grid = TorusGrid(32)
    u0_fn = lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x)
    transport = TransportProblem(
        velocity=lambda x: np.full_like(x, c), divergence=lambda x: np.zeros_like(x),
        source=lambda x: np.zeros_like(x), noise=bounded_smooth_noise(amplitude),
        epsilon=eps, u0=u0_fn)
    kinetic = KineticProblem(flux=linear_flux(c), sigma=bounded_smooth_sigma(amplitude),
                             epsilon=eps, u0=u0_fn, xi_min=-4.0, xi_max=5.0)
    nt = steps_for_cfl(transport, grid, T)
    assert steps_for_cfl(kinetic, grid, T) == nt
    tgrid = TimeGrid(T, nt)
    dW = increment_chunk(tgrid, 2, 15, 0, 3)
    u0 = np.broadcast_to(u0_fn(grid.x), (3, grid.cells))
    psi = 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
    pairings = {"square": (psi, lambda u: u * u)}
    a = _march(transport, grid, tgrid, u0, dW, pairings=pairings)
    b = _march_claw(kinetic, grid, tgrid, u0, dW, pairings=pairings)
    assert np.max(np.abs(a["final"] - b["final"])) <= 1e-10
    assert np.max(np.abs(a["energy"] - b["energy"])) <= 1e-10
    assert np.max(np.abs(a["traces"]["square"] - b["traces"]["square"])) <= 1e-10
    assert np.max(np.abs(a["final"] - u0)) > 0.05  # the noise moved the state
