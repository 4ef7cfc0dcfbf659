from dataclasses import replace

import numpy as np
import pytest

from stochlab import claw, transport
from stochlab._util import pairwise_sum, periodic_shift
from stochlab.errors import CFLError, ConfigurationError, SolverBlowupError
from stochlab.processes import TestFunction
from stochlab.transport import (FieldPath, StateNoise, TorusGrid,
                                TransportProblem, _divisor_at_least, _energy_of,
                                _initial_state, _march, _pair_theta, _renorm_theta,
                                _shared_draw, _smooth_at_least,
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


def still_problem(sigma=None, eps=0.0, u0=None):
    return TransportProblem(
        velocity=lambda x: np.zeros_like(x),
        divergence=lambda x: np.zeros_like(x),
        source=lambda x: np.zeros_like(x),
        sigma=sigma, epsilon=eps,
        u0=u0 or (lambda x: np.sin(2 * np.pi * x) + 0.5),
    )


def smooth_problem(eps=0.0, sigma=None):
    return TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: 0.1 * np.cos(2 * np.pi * x),
        sigma=sigma, epsilon=eps,
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
            sigma=None, epsilon=0.0,
            u0=lambda x: np.sin(2 * np.pi * x))
        nt = steps_for_cfl(P, grid, T)
        W = sample_wiener(TimeGrid(T, nt), 1, seed=1, replica=0)
        path = solve_transport(P, W, grid)
        exact = np.sin(2 * np.pi * (grid.x - c * T))
        errs.append(np.mean(np.abs(path.values[-1] - exact)))
    assert errs[1] <= errs[0] / 2.0 * 1.2


def test_additive_constant_noise_telescopes_exactly():
    sigma0 = np.array([0.3, -0.2])
    P = still_problem(sigma=claw.constant_sigma(sigma0))
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
        sigma=None, epsilon=0.01,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5)
    nt = steps_for_cfl(P, GRID, 1.0)
    W = sample_wiener(TimeGrid(1.0, nt), 1, seed=3, replica=0)
    path = solve_transport(P, W, GRID)
    means = path.spatial_mean()
    assert np.max(np.abs(means - means[0])) <= 1e-12


def test_energy_trace_matches_recomputation():
    P = still_problem(sigma=bounded_smooth_noise(0.2))
    W = sample_wiener(TimeGrid(0.5, 128), 2, seed=4, replica=0)
    path = solve_transport(P, W, GRID)
    manual = 0.5 * np.sum(path.values ** 2, axis=1) * GRID.dx
    assert np.max(np.abs(path.energy - manual)) < 1e-12
    with pytest.raises(ConfigurationError):
        FieldPath(GRID, W.grid, path.values, path.energy + 1e-6)


def test_weak_residual_exact_for_additive_solution():
    sigma0 = np.array([0.4])
    P = still_problem(sigma=claw.constant_sigma(sigma0))
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
        sigma=None, epsilon=0.02,
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
        P = smooth_problem(eps=0.005, sigma=claw.constant_sigma([0.2]))
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
    P = still_problem(sigma=claw.constant_sigma(sigma0))
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
    P = still_problem(sigma=bounded_smooth_noise(0.2), eps=0.05)
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
        sigma=bounded_smooth_noise(0.15),
        epsilon=1.0 / n,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5 + (0.1 / n) * np.sin(2 * np.pi * x))


def make_limit():
    return TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: 0.1 * np.cos(2 * np.pi * x),
        sigma=bounded_smooth_noise(0.15),
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

    P = still_problem(sigma=bounded_smooth_noise(0.2))
    W = sample_wiener(TimeGrid(0.5, 128), 2, seed=21, replica=0)
    path = solve_transport(P, W, GRID)
    psi = TestFunction.one(64)
    trace = renormalized_pairing(path, psi, lambda u: P.sigma(u))  # (N_t+1, 2)
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
        return still_problem(sigma=bounded_smooth_noise(0.3), eps=1.0 / n)

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
    sigma = replace(base, fn=counted)
    tgrid, grid, replicas, seed = TimeGrid(0.25, 256), TorusGrid(32), 3, 5

    def prob(n):
        return still_problem(sigma=sigma, eps=1.0 / n)

    ens = transport_translation_ensembles(prob, [4, 8], grid, tgrid, replicas, seed)
    assert len(calls) == 2 * (tgrid.steps + 1)
    psi = TestFunction.one(grid.cells).values
    for n in (4, 8):
        pn = prob(n)
        direct = _march(pn, grid, tgrid, _initial_state(pn, grid, replicas),
                        increment_chunk(tgrid, pn.k, seed, 0, replicas),
                        pairings={"trace": (psi, _renorm_theta(pn))})
        assert np.array_equal(ens[n], direct["traces"]["trace"])


def small_blocks(monkeypatch, slots, rows, size):
    """Shrink the step loop's buffer to `slots` nodes of `rows` rows of a state
    of `size` doubles, and count the reductions the march makes."""
    monkeypatch.setattr(transport, "BLOCK_DOUBLES", slots * rows * size)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pairwise_sum(*args, **kwargs)
    monkeypatch.setattr(transport, "pairwise_sum", counted)
    return calls


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one_path", "batched"])
@pytest.mark.parametrize("marcher", ["transport", "claw"])
def test_block_reductions_equal_the_per_node_definition(monkeypatch, marcher, lead):
    # energy and pairing traces gathered over blocks of nodes and reduced once
    # per block equal, bit for bit, the per-node reductions of the stored field
    # (_energy_of, _pair_theta): a k = 2 theta and claw's scalar chi pairing,
    # over several blocks of 5 nodes that end in a partial one
    grid, tgrid = TorusGrid(32), TimeGrid(0.2, 23)
    u0_fn = lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x)
    if marcher == "transport":
        problem = smooth_problem(eps=0.01, sigma=bounded_smooth_noise(0.3))
        march, sigma = _march, problem.sigma
    else:
        problem = claw.KineticProblem(claw.quadratic_flux(), claw.bounded_smooth_sigma(0.3), 0.01,
                                      u0_fn, -1.0, 2.0)
        march, sigma = claw._march_claw, problem.sigma
    phi = claw.bump_test_function(TestFunction.one(grid.cells), -0.5, 1.5)
    psi = 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
    pairings = {"sigma": (psi, sigma), "chi": (psi, claw.chi_pairing_fn(phi, (-1.0, 2.0)))}
    u0 = np.broadcast_to(u0_fn(grid.x), lead + (grid.cells,))
    dW = increment_chunk(tgrid, 2, 31, 0, 3)
    dW = dW[0] if not lead else dW

    calls = small_blocks(monkeypatch, 5, 1 + 2 + 1, u0.size)
    res = march(problem, grid, tgrid, u0, dW, pairings=pairings, store_full=True)
    assert len(calls) == 5                     # blocks of 5, 5, 5, 5 and 4 nodes
    monkeypatch.undo()

    full = res["full"]                          # (nt + 1,) + lead + (cells,)
    assert np.array_equal(res["energy"], np.moveaxis(_energy_of(full, grid.dx), 0, -1))
    for name, (psi_values, theta) in pairings.items():
        direct = _pair_theta(psi_values, theta(full), full.ndim, grid.dx)
        assert np.array_equal(res["traces"][name], np.moveaxis(direct, 0, -2))
    assert res["traces"]["sigma"].shape == lead + (tgrid.steps + 1, 2)
    assert res["traces"]["chi"].shape == lead + (tgrid.steps + 1, 1)


def test_blowup_inside_a_block_names_its_step(monkeypatch):
    # an infinite increment at step 7 makes the state at node 8 non-finite:
    # the march stops there, in the middle of a block, and names step 7
    P = still_problem(sigma=claw.constant_sigma([0.5]))
    tgrid = TimeGrid(0.5, 32)
    dW = increment_chunk(tgrid, 1, 3, 0, 2)
    dW[1, 7, 0] = np.inf
    u0 = _initial_state(P, GRID, 2)
    small_blocks(monkeypatch, 5, 1, u0.size)
    with pytest.raises(SolverBlowupError) as err:
        _march(P, GRID, tgrid, u0, dW)
    assert err.value.step == 7


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("shift", [1, -1])
def test_periodic_shift_is_a_roll_by_one(axis, shift):
    a = np.arange(2 * 5 * 3, dtype=float).reshape(2, 5, 3)
    assert np.array_equal(periodic_shift(a, shift, axis), np.roll(a, shift, axis=axis))
    if axis == -1:
        line = np.arange(6.0)
        assert np.array_equal(periodic_shift(line, shift), np.roll(line, shift))


# sigma(u) as the noise factories defined it with np.stack: components interleaved
def stacked_factories():
    vec = np.array([0.3, -0.15])
    return {
        "transport_smooth": (bounded_smooth_noise(0.3, 1.5),
                             lambda u: 0.3 * np.stack([np.sin(1.5 * u), np.cos(1.5 * u)], axis=-1)),
        "claw_untilted": (claw.bounded_smooth_sigma(0.3, 1.5),
                          lambda u: 0.3 * np.stack([np.sin(1.5 * u), np.cos(1.5 * u)], axis=-1)),
        "claw_smooth": (claw.bounded_smooth_sigma(0.25, 1.5, linear_tilt=0.4),
                        lambda xi: 0.25 * np.stack([np.sin(1.5 * np.asarray(xi) + 0.4),
                                                    np.cos(1.5 * np.asarray(xi))], axis=-1)),
        "claw_constant": (claw.constant_sigma(vec),
                          lambda xi: np.broadcast_to(vec, np.shape(xi) + (2,)).copy()),
    }


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 16), (2, 3, 16)],
                         ids=["0d", "one", "1d", "replicas_cells", "nodes_replicas_cells"])
@pytest.mark.parametrize("factory", ["transport_smooth", "claw_untilted", "claw_smooth",
                                     "claw_constant"])
def test_noise_factories_give_contiguous_components(factory, shape):
    # each factory's fn equals its np.stack definition, shape (..., k), and
    # every component [..., c] is C-contiguous
    noise, stacked = stacked_factories()[factory]
    u = np.asarray(np.random.default_rng(7).uniform(-1.0, 2.0, shape))
    got, want = noise.fn(u), stacked(u)
    assert isinstance(got, np.ndarray) and got.shape == shape + (2,) == want.shape
    assert np.array_equal(got, want)
    assert all(got[..., c].flags.c_contiguous for c in range(2))
    if shape == ():
        assert np.array_equal(noise.fn(float(u)), want)


@pytest.mark.parametrize("factory", ["transport_smooth", "claw_untilted", "claw_smooth",
                                     "claw_constant"])
def test_noise_factories_give_one_state_noise(factory):
    # every factory returns a StateNoise whose dfn is the derivative of fn and
    # whose lipschitz is the sup of |dfn|: an upper bound on the window (up to
    # roundoff), which spans more than a period of the smooth ones, and
    # reached there to 1e-3
    sigma = stacked_factories()[factory][0]
    assert isinstance(sigma, StateNoise)
    u = np.linspace(-3.0, 4.0, 4097)
    value, slope = sigma.fn(u), sigma.dfn(u)
    assert value.shape == slope.shape == u.shape + (sigma.k,)
    assert all(value[..., c].flags.c_contiguous for c in range(sigma.k))
    central = (sigma.fn(u[2:]) - sigma.fn(u[:-2])) / (2.0 * (u[1] - u[0]))
    assert np.max(np.abs(slope[1:-1] - central)) <= 1e-5
    steepest = float(np.max(np.linalg.norm(slope, axis=-1)))
    assert steepest <= sigma.lipschitz * (1.0 + 1e-12)
    assert steepest >= (1.0 - 1e-3) * sigma.lipschitz


def test_both_smooth_factories_give_the_same_sigma():
    u = np.random.default_rng(9).uniform(-2.0, 3.0, (3, 16))
    for amplitude, frequency in ((0.3, 1.0), (0.25, 1.5), (-0.1, 2.0)):
        transport_sigma = bounded_smooth_noise(amplitude, frequency)
        claw_sigma = claw.bounded_smooth_sigma(amplitude, frequency)
        assert np.all(transport_sigma.fn(u) == claw_sigma.fn(u))
        assert transport_sigma.lipschitz == claw_sigma.lipschitz == abs(amplitude * frequency)
        assert transport_sigma.bound == claw_sigma.bound


def test_pairing_integrands_keep_contiguous_components():
    # u sigma(u) of the renormalised pairing and zeta(u) sigma(u) of the
    # kinetic Ito pairing follow sigma's layout: one contiguous pass each
    u = np.random.default_rng(8).uniform(-0.5, 1.5, (3, 16))
    renorm = _renorm_theta(still_problem(sigma=bounded_smooth_noise(0.3)))(u)
    problem = claw.KineticProblem(claw.quadratic_flux(), claw.bounded_smooth_sigma(0.3), 0.01,
                                  lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x), -1.0, 2.0)
    phi = claw.bump_test_function(TestFunction.one(16), -0.5, 1.5)
    ito = claw.ito_pairing_fn(problem, phi)(u)
    for probe in (renorm, ito):
        assert probe.shape == (3, 16, 2)
        assert all(probe[..., c].flags.c_contiguous for c in range(2))


def test_noise_layout_changes_no_bit_of_a_translation_march():
    # the transport and kinetic translation traces are the same, bit for bit,
    # when sigma's fn hands back an interleaved copy of its value

    def interleaved(noise):
        def fn(u):
            out = np.ascontiguousarray(noise.fn(u))
            assert np.ndim(u) == 0 or not out[..., 0].flags.c_contiguous
            return out
        return replace(noise, fn=fn)

    tgrid, grid, replicas = TimeGrid(0.25, 128), TorusGrid(16), 3
    phi = claw.bump_test_function(TestFunction.one(grid.cells), -0.9, 1.9)

    def transport_of(layout):
        return lambda n: still_problem(sigma=layout(bounded_smooth_noise(0.3)), eps=1.0 / n)

    def claw_of(layout):
        return lambda n: claw.KineticProblem(
            claw.quadratic_flux(), layout(claw.bounded_smooth_sigma(0.25, 1.0, 0.5 / n)),
            1.0 / n, lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x), -1.2, 2.2)

    def traces(layout):
        return [transport_translation_ensembles(transport_of(layout), [4, 8], grid, tgrid,
                                                replicas, 17),
                claw.claw_translation_ensembles(claw_of(layout), [4, 8], grid, tgrid,
                                                replicas, 18, phi)]

    for planar, stacked in zip(traces(lambda noise: noise), traces(interleaved)):
        for n in (4, 8):
            assert planar[n].shape == (replicas, tgrid.steps + 1, 2)
            assert np.array_equal(planar[n], stacked[n])
