import numpy as np
import pytest

from stochlab import transport
from stochlab.errors import CFLError, ConfigurationError
from stochlab.processes import TestFunction
from stochlab.transport import (AdditiveNoise, FieldPath, StateNoise, TorusGrid,
                                TransportProblem, _divisor_at_least, _initial_state, _march,
                                _renorm_theta, _shared_draw, _smooth_at_least,
                                bounded_smooth_noise,
                                cfl_number, gronwall_energy_bound,
                                renormalized_pairing, solve_transport,
                                stability_experiment, steps_for_cfl,
                                transport_translation_ensembles,
                                variance_inequality_residuals, weak_residual)
from stochlab.translation import fit_translation_rate, standard_lag_ladder
from stochlab.wiener import (STREAM_B, CouplingSchedule, TimeGrid, aggregate_increments,
                             increment_chunk, sample_wiener)

GRID = TorusGrid(64)


def still_problem(noise=None, eps=0.0, u0=None):
    return TransportProblem(
        velocity=lambda x: np.zeros_like(x),
        divergence=lambda x: np.zeros_like(x),
        source=lambda x: np.zeros_like(x),
        noise=noise, epsilon=eps,
        u0=u0 or (lambda x: np.sin(2 * np.pi * x) + 0.5),
    )


def smooth_problem(eps=0.0, noise=None):
    return TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: 0.1 * np.cos(2 * np.pi * x),
        noise=noise, epsilon=eps,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5,
    )


def test_all_fluxes_off_keeps_initial_datum():
    P = still_problem()
    W = sample_wiener(TimeGrid(1.0, 128), 1, seed=1, replica=0)
    path = solve_transport(P, W, GRID)
    assert np.array_equal(path.values[-1], path.values[0])
    assert np.all(path.values == path.values[0][None, :])


def test_constant_advection_matches_characteristics():
    # b = c: u(T, x) = u0(x - cT) up to O(dx + dt); halving the mesh at fixed
    # CFL ratio roughly halves the error
    c, T = 1.0, 0.5
    errs = []
    for cells in (64, 128):
        grid = TorusGrid(cells)
        P = TransportProblem(
            velocity=lambda x: np.full_like(x, c),
            divergence=lambda x: np.zeros_like(x),
            source=lambda x: np.zeros_like(x),
            noise=None, epsilon=0.0,
            u0=lambda x: np.sin(2 * np.pi * x))
        nt = steps_for_cfl(P, grid, T)
        W = sample_wiener(TimeGrid(T, nt), 1, seed=1, replica=0)
        path = solve_transport(P, W, grid)
        exact = np.sin(2 * np.pi * (grid.x - c * T))
        errs.append(np.mean(np.abs(path.values[-1] - exact)))
    assert errs[1] <= errs[0] / 2.0 * 1.2


def test_additive_constant_noise_telescopes_exactly():
    sigma0 = np.array([0.3, -0.2])
    P = still_problem(noise=AdditiveNoise(np.tile(sigma0, (64, 1))))
    W = sample_wiener(TimeGrid(1.0, 256), 2, seed=2, replica=0)
    path = solve_transport(P, W, GRID)
    u0 = P.u0(GRID.x)
    for j in (0, 100, 256):
        exact = u0 + sigma0 @ W.values[j]
        assert np.max(np.abs(path.values[j] - exact)) < 1e-12


def test_cfl_rejection():
    P = smooth_problem(eps=0.5)
    W = sample_wiener(TimeGrid(1.0, 64), 1, seed=1, replica=0)  # far too coarse
    with pytest.raises(CFLError):
        solve_transport(P, W, GRID)
    assert cfl_number(P, GRID, 1.0 / steps_for_cfl(P, GRID, 1.0)) <= 0.9


def test_mass_conservation_to_machine_precision():
    # f = 0, sigma = 0: conservative flux form keeps the spatial mean frozen
    P = TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: np.zeros_like(x),
        noise=None, epsilon=0.01,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5)
    nt = steps_for_cfl(P, GRID, 1.0)
    W = sample_wiener(TimeGrid(1.0, nt), 1, seed=3, replica=0)
    path = solve_transport(P, W, GRID)
    means = path.spatial_mean()
    assert np.max(np.abs(means - means[0])) <= 1e-12


def test_energy_trace_matches_recomputation():
    P = still_problem(noise=bounded_smooth_noise(0.2))
    W = sample_wiener(TimeGrid(0.5, 128), 2, seed=4, replica=0)
    path = solve_transport(P, W, GRID)
    manual = 0.5 * np.sum(path.values ** 2, axis=1) * GRID.dx
    assert np.max(np.abs(path.energy - manual)) < 1e-12
    with pytest.raises(ConfigurationError):
        FieldPath(GRID, W.grid, path.values, path.energy + 1e-6)


def test_weak_residual_exact_for_additive_solution():
    sigma0 = np.array([0.4])
    P = still_problem(noise=AdditiveNoise(np.tile(sigma0, (64, 1))))
    W = sample_wiener(TimeGrid(1.0, 256), 1, seed=5, replica=0)
    path = solve_transport(P, W, GRID)
    phi = TestFunction.from_callable(64, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    for t in (0.25, 1.0):
        assert abs(weak_residual(path, P, W, phi, t)) < 1e-10


def test_weak_residual_constant_testfunction_is_mass_drift():
    P = TransportProblem(
        velocity=lambda x: np.full_like(x, 0.7),
        divergence=lambda x: np.zeros_like(x),
        source=lambda x: np.zeros_like(x),
        noise=None, epsilon=0.02,
        u0=lambda x: np.cos(2 * np.pi * x))
    nt = steps_for_cfl(P, GRID, 0.5)
    W = sample_wiener(TimeGrid(0.5, nt), 1, seed=6, replica=0)
    path = solve_transport(P, W, GRID)
    phi = TestFunction.one(64)
    assert abs(weak_residual(path, P, W, phi, 0.5)) <= 1e-12


def test_weak_residual_refines_at_first_order():
    T = 0.25
    phi_fn = lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x)
    residuals = []
    for cells in (64, 128):
        grid = TorusGrid(cells)
        P = smooth_problem(eps=0.005, noise=AdditiveNoise(
            np.stack([0.2 * np.sin(2 * np.pi * grid.x)], axis=1)))
        nt = steps_for_cfl(P, grid, T)
        W = sample_wiener(TimeGrid(T, nt), 1, seed=7, replica=0)
        path = solve_transport(P, W, grid)
        phi = TestFunction.from_callable(cells, phi_fn)
        residuals.append(abs(weak_residual(path, P, W, phi, T)))
    assert residuals[0] / residuals[1] >= 1.5


def test_renormalized_pairing_constant_identity():
    P = still_problem(u0=lambda x: np.full_like(x, 2.0))
    W = sample_wiener(TimeGrid(0.5, 64), 1, seed=8, replica=0)
    path = solve_transport(P, W, GRID)
    psi = TestFunction.one(64)
    trace = renormalized_pairing(path, psi, lambda u: u)
    assert np.allclose(trace, 2.0)


def test_renormalized_pairing_additive_closed_form():
    sigma0 = np.array([0.5])
    P = still_problem(noise=AdditiveNoise(np.tile(sigma0, (64, 1))))
    W = sample_wiener(TimeGrid(1.0, 256), 1, seed=9, replica=0)
    path = solve_transport(P, W, GRID)
    psi = TestFunction.one(64)
    trace = renormalized_pairing(path, psi, lambda u: 0.5 * u * u)
    u0 = P.u0(GRID.x)
    w = W.values[:, 0]
    expected = 0.5 * np.mean((u0[None, :] + 0.5 * w[:, None]) ** 2, axis=1)
    assert np.max(np.abs(trace - expected)) < 1e-10


def test_variance_inequality():
    rng = np.random.default_rng(0)
    noise = bounded_smooth_noise(0.3)
    u = rng.standard_normal(4000) * 0.7 + 0.2
    slack_mean, slack_lip = variance_inequality_residuals(u, noise)
    assert slack_mean >= -1e-12
    assert slack_lip >= -0.01 * max(1.0, abs(slack_lip))


def test_gronwall_bound_holds_for_driftless_noisy_run():
    P = still_problem(noise=bounded_smooth_noise(0.2), eps=0.05)
    nt = steps_for_cfl(P, GRID, 0.5)
    sup = 0.0
    for r in range(32):
        W = sample_wiener(TimeGrid(0.5, nt), 2, seed=10, replica=r)
        path = solve_transport(P, W, GRID)
        sup = max(sup, 2.0 * path.energy.max())
    assert sup <= gronwall_energy_bound(P, GRID, 0.5)


def make_ladder(n):
    return TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x) + (0.2 / n) * np.sin(4 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x) + (0.8 * np.pi / n) * np.cos(4 * np.pi * x),
        source=lambda x: 0.1 * np.cos(2 * np.pi * x) * (1.0 + 1.0 / n),
        noise=bounded_smooth_noise(0.15),
        epsilon=1.0 / n,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5 + (0.1 / n) * np.sin(2 * np.pi * x))


def make_limit():
    return TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: 0.1 * np.cos(2 * np.pi * x),
        noise=bounded_smooth_noise(0.15),
        epsilon=0.0,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5)


def test_stability_experiment_reduced_scale():
    # reduced-size version of the acceptance run: checks plumbing + trends
    report = stability_experiment(
        {n: make_ladder(n) for n in (2, 8, 32)}, make_limit(),
        CouplingSchedule(), TorusGrid(32), horizon=0.2,
        replicas=24, seed=11, snapshots=16)
    for key in report.entries[0].monitors:
        vals = [e.monitors[key] for e in report.entries]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    d = [e.lp_distance for e in report.entries]
    assert d[2] <= d[0] / 3.0
    assert all(e.energy_sup <= report.energy_bound for e in report.entries)
    assert all(e.sign_monitor_violation <= 0.0 for e in report.entries)


def record_marches(monkeypatch, module, marcher):
    """Patch module.marcher to record (problem, grid, tgrid, dW) of every solve."""
    solves = []
    original = getattr(module, marcher)

    def spy(problem, grid, tgrid, u0, dW, *args, **kwargs):
        solves.append((problem, grid, tgrid, dW))
        return original(problem, grid, tgrid, u0, dW, *args, **kwargs)
    monkeypatch.setattr(module, marcher, spy)
    return solves


def check_shared_draw(solves, finest, multiple_of, seed, ladder_cells, schedule):
    """Every solve marches on a divisor grid of the finest one at CFL <= 0.45 and
    reads block sums of the finest draw of W (the limit) or of W and B mixed (a member)."""
    dW_fine = increment_chunk(finest, 2, seed, 0, len(solves[0][3]))
    dB_fine = increment_chunk(finest, 2, seed, 0, len(solves[0][3]), stream=STREAM_B)
    for problem, grid, tgrid, dW in solves:
        assert finest.steps % tgrid.steps == 0 and tgrid.steps % multiple_of == 0
        assert transport.cfl_number(problem, grid, tgrid.dt) <= 0.45 + 1e-12
        factor, rows = finest.steps // tgrid.steps, len(dW)
        w = aggregate_increments(dW_fine[:rows], factor)
        w_final = dW_fine[:rows].sum(axis=1)
        if problem.epsilon == 0.0:
            assert np.array_equal(dW, w)
        else:
            assert grid.cells == ladder_cells
            a = schedule.coefficient(round(1.0 / problem.epsilon))
            b = aggregate_increments(dB_fine[:rows], factor)
            assert np.array_equal(dW, (w + a * b) * (1.0 / np.sqrt(1.0 + a * a)))
            w_final = (w_final + a * dB_fine[:rows].sum(axis=1)) / np.sqrt(1.0 + a * a)
        assert np.max(np.abs(dW.sum(axis=1) - w_final)) <= 1e-12


def test_ladder_solves_share_one_finest_draw(monkeypatch):
    ladder, limit, grid = {n: make_ladder(n) for n in (2, 8, 32)}, make_limit(), TorusGrid(32)
    batch, tgrids, ref, check = _shared_draw(ladder, limit, grid, 0.2, 4, 16, 11, 5)
    solves = record_marches(monkeypatch, transport, "_march")
    report = stability_experiment(ladder, limit, CouplingSchedule(), grid, horizon=0.2,
                                  replicas=5, seed=11, snapshots=16)
    # members, the reference, and the reference in time and in space on the probe
    assert [(g.cells, t.steps) for _, g, t, _ in solves] == (
        [(128, ref.steps)] + [(32, tgrids[n].steps) for n in (2, 8, 32)]
        + [(128, check.steps), (256, check.steps)])
    assert check.steps == 2 * ref.steps
    check_shared_draw(solves, batch.grid, 16, 11, 32, CouplingSchedule())
    assert set(report.reference_errors) == {"time", "space"}


def test_shared_draw_at_the_acceptance_scale():
    from stochlab.cli import _transport_problem, apply_defaults
    p = apply_defaults("transport", {"seed": 1, "samples": 2})
    batch, tgrids, ref, check = _shared_draw(
        {n: _transport_problem(p, n) for n in (2, 8, 32)}, _transport_problem(p, None),
        TorusGrid(128), 0.25, 4, 64, 1, 2)
    assert batch.grid.steps == 9216
    assert [tgrids[n].steps for n in (2, 8, 32)] == [9216, 3072, 768]
    assert (ref.steps, check.steps) == (256, 512)
    assert [_smooth_at_least(q) for q in (1, 5, 121, 144, 145)] == [1, 6, 128, 144, 162]
    assert _divisor_at_least(27 * 16, 16, 100) == 144


def test_solver_pairing_traces_are_predictable_integrands():
    # the sigma(u(t_j)) pairing read off the solve is left-node measurable:
    # wrapped as an adapted process it passes the integration safety check
    # and its left sums match the inline accumulation
    from stochlab.ito import ito_integral
    from stochlab.processes import AdaptedProcess, DependencyTag

    P = still_problem(noise=bounded_smooth_noise(0.2))
    W = sample_wiener(TimeGrid(0.5, 128), 2, seed=21, replica=0)
    path = solve_transport(P, W, GRID)
    psi = TestFunction.one(64)
    trace = renormalized_pairing(path, psi, lambda u: P.noise(u))  # (N_t+1, 2)
    V = AdaptedProcess(W.grid, trace[:-1][:, None, :], "matrix",
                       DependencyTag(frozenset({"W"}), 0))
    integral = ito_integral(V, W)
    inline = np.sum(trace[:-1] * W.increments)
    assert integral.shape == (1,)
    assert integral[0] == pytest.approx(inline, abs=1e-12)


def test_translation_slope_of_transport_pairings():
    # driftless noisy run: the renormalised pairing is martingale-driven, so
    # its translation modulus fits slope ~1/2, uniformly along the ladder
    tgrid = TimeGrid(1.0, 1024)
    grid = TorusGrid(32)

    def prob(n):
        return still_problem(noise=bounded_smooth_noise(0.3), eps=1.0 / n)

    ens = transport_translation_ensembles(prob, [64, 128], grid, tgrid,
                                          replicas=128, seed=13)
    fit = fit_translation_rate(ens, tgrid, standard_lag_ladder(tgrid))
    assert fit.worst_slope() >= 0.4
    assert np.all(fit.uniform_ratio <= 1.5)


def test_translation_ensembles_evaluate_sigma_once_per_state():
    # the noise step and the renormalised pairing read sigma(u) of the same
    # state: each march evaluates it once per time node, and the traces equal
    # those of a march that evaluates it at every use, bit for bit
    base = bounded_smooth_noise(0.3)
    calls = []

    def counted(u):
        calls.append(1)
        return base.fn(u)
    noise = StateNoise(counted, base.k, base.lipschitz, base.bound)
    tgrid, grid, replicas, seed = TimeGrid(0.25, 256), TorusGrid(32), 3, 5

    def prob(n):
        return still_problem(noise=noise, eps=1.0 / n)

    ens = transport_translation_ensembles(prob, [4, 8], grid, tgrid, replicas, seed)
    assert len(calls) == 2 * (tgrid.steps + 1)
    psi = TestFunction.one(grid.cells).values
    for n in (4, 8):
        pn = prob(n)
        direct = _march(pn, grid, tgrid, _initial_state(pn, grid, replicas),
                        increment_chunk(tgrid, pn.k, seed, 0, replicas),
                        pairings={"trace": (psi, _renorm_theta(pn))})
        assert np.array_equal(ens[n], direct["traces"]["trace"])
