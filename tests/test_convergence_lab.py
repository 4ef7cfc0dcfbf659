import numpy as np
import pytest

from stochlab import convergence_lab
from stochlab.convergence_lab import (DecompositionReport, GapEntry,
                                      convergence_scan, counterexample_sine,
                                      counterexample_spike, decompose,
                                      integral_gap, l1_torus_mode,
                                      necessity_control, pairing_l2_distance,
                                      rho_sweep, spatial_oscillation_family,
                                      temporal_oscillation_family,
                                      weak_omega_family, zero_limit)
from stochlab.errors import ConfigurationError
from stochlab.processes import (AdaptedProcess, Ensemble, TestFunction,
                                default_test_variables)
from stochlab.wiener import CouplingSchedule, TimeGrid

GRID = TimeGrid(1.0, 256)
SCHED = CouplingSchedule()


def constant_limit(c):
    def make(draw):
        return AdaptedProcess(draw.W.grid, np.full(draw.W.grid.steps, c), "scalar")
    return make


def constant_family(c):
    def make(draw, n):
        return AdaptedProcess(draw.W.grid, np.full(draw.W.grid.steps, c), "scalar")
    return make


def test_identical_inputs_give_zero_statistics():
    ens = Ensemble(seed=1, replicas=400)
    ident = CouplingSchedule(kind="identity")
    weak = integral_gap(GRID, 1, constant_family(1.0), constant_limit(1.0), ident,
                        4, ens, "weak")
    strong = integral_gap(GRID, 1, constant_family(1.0), constant_limit(1.0), ident,
                          4, ens, "strong")
    assert weak.statistic <= 3 * max(w[1] for w in weak.per_y.values())
    assert strong.statistic == 0.0


def test_weak_omega_family_gap_shrinks_along_coupling():
    # the omega-oscillation pairs to zero against every fixed Y; the coupling
    # drift (1+a_n^2)^{-1/2} - 1 against Y = W(T) dominates and falls fast
    ens = Ensemble(seed=2, replicas=4000)
    fam = weak_omega_family(lambda t: np.ones_like(t), lambda t: np.sin(2 * np.pi * t))
    rep = convergence_scan(GRID, 1, fam, constant_limit(1.0), SCHED, [1, 4, 16],
                           ens, "weak")
    g1, g16 = rep.entries[0].statistic, rep.entries[-1].statistic
    assert g16 <= g1 / 3.0
    assert rep.verdict
    # oracle for n = 1: E[W(T) I] = (1/sqrt2 - 1) * T (normalised Y: same here T=1)
    expected = abs(1.0 / np.sqrt(2.0) - 1.0)
    got, se = rep.entries[0].per_y["W_T"]
    assert abs(abs(got) - expected) <= 3 * se + 0.01


def test_strong_mode_dominates_weak_mode():
    # |E[Y I]|^2 <= E|I|^2 for unit-norm Y (Cauchy-Schwarz at statistic level)
    ens = Ensemble(seed=3, replicas=2000)
    fam = weak_omega_family(lambda t: np.zeros_like(t), lambda t: np.ones_like(t))
    weak = integral_gap(GRID, 1, fam, zero_limit, SCHED, 2, ens, "weak")
    strong = integral_gap(GRID, 1, fam, zero_limit, SCHED, 2, ens, "strong")
    assert weak.statistic ** 2 <= strong.statistic + 3 * strong.stderr


def test_necessity_control_floor():
    # V_n = sin(2 pi n t) Z never converges: E|I|^2 = (T/2) E Z^2 for every n
    ens = Ensemble(seed=4, replicas=3000)
    entries, floor, ok = necessity_control(GRID, SCHED, [1, 4, 16], ens)
    assert ok
    for e in entries:
        assert e.statistic >= floor - 3 * e.stderr
        assert abs(e.statistic - floor) <= 4 * e.stderr + 0.02 * floor


def test_restored_translation_estimate_restores_convergence():
    # same oscillation with amplitude decay n^{-1/2}: statistic ~ 1/n
    ens = Ensemble(seed=5, replicas=3000)
    fam = temporal_oscillation_family(0.5)
    rep = convergence_scan(GRID, 1, fam, zero_limit, SCHED, [2, 8, 32], ens, "strong")
    assert rep.verdict
    assert rep.slope < -0.7


def test_strong_pairing_distance_decreases():
    ens = Ensemble(seed=6, replicas=1500)
    fam = temporal_oscillation_family(0.5)
    d2, _ = pairing_l2_distance(GRID, 1, fam, zero_limit, 2, ens)
    d32, _ = pairing_l2_distance(GRID, 1, fam, zero_limit, 32, ens)
    assert d32 < d2 / 3.0


def test_decomposition_rho_sweep_monotone():
    ens = Ensemble(seed=7, replicas=800)
    fam = weak_omega_family(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t),
                            lambda t: np.sin(2 * np.pi * t))
    reports = rho_sweep(GRID, 1, fam, constant_limit(1.0), SCHED, 4,
                        [0.2, 0.1, 0.05], ens)
    i1 = [r.i1_second_moment for r in reports]
    i3 = [r.i3_second_moment for r in reports]
    assert i1[0] > i1[1] > i1[2]
    assert i3[0] > i3[1] > i3[2]
    for r in reports:
        assert r.triangle_consistent()


def test_decomposition_identical_inputs_vanishes_pathwise():
    ens = Ensemble(seed=8, replicas=300)
    ident = CouplingSchedule(kind="identity")
    rep = decompose(GRID, 1, constant_family(2.0), constant_limit(2.0), ident,
                    3, 0.1, ens)
    assert rep.i2_gap <= 1e-12
    assert rep.total_gap <= 1e-12


def test_decomposition_i2_gap_falls_in_n_at_fixed_rho():
    ens = Ensemble(seed=9, replicas=2500)
    fam = weak_omega_family(lambda t: np.ones_like(t), lambda t: np.sin(2 * np.pi * t))
    gaps = [decompose(GRID, 1, fam, constant_limit(1.0), SCHED, n, 0.1, ens).i2_gap
            for n in (1, 4, 16)]
    assert gaps[2] < gaps[0] / 3.0


def test_subterm_sum_tracks_direct_i2():
    # integration by parts is exact in the continuum; discretely the four
    # pieces reproduce the directly simulated I_2 to time-quadrature accuracy
    from stochlab.convergence_lab import _i2_subterms
    from stochlab.ito import ito_integral
    from stochlab.mollify import MollifierKernel, mollify_left_nodes
    from stochlab.wiener import ReplicaDraw

    fam = weak_omega_family(lambda t: np.ones_like(t), lambda t: np.sin(2 * np.pi * t))
    limit = constant_limit(1.0)
    K = MollifierKernel(0.15)
    worst = 0.0
    for r in range(24):
        draw = ReplicaDraw.sample(GRID, 1, 10, r)
        Wn = SCHED.coupled(draw.W, draw.B, 2)
        Vn, V = fam(draw, 2), limit(draw)
        smoothed_n = Vn.with_values(mollify_left_nodes(K, GRID, Vn.values))
        smoothed = V.with_values(mollify_left_nodes(K, GRID, V.values))
        direct = ito_integral(smoothed_n, Wn) - ito_integral(smoothed, draw.W)
        pieces = _i2_subterms(K, GRID, Vn.values, V.values, Wn, draw.W)
        worst = max(worst, abs(direct - pieces.sum()))
    assert worst <= 30.0 * GRID.dt  # O(dt) quadrature agreement

    rep = decompose(GRID, 1, fam, limit, SCHED, 2, 0.15,
                    Ensemble(seed=10, replicas=200), subterms=True)
    assert set(rep.subterm_means) == {"i2_1", "i2_2", "i2_3", "i2_4"}


def test_isometry_consistency_of_strong_mode():
    # with W_n = W the strong statistic is E int |V_n - V|^2 dt (Ito isometry)
    ens = Ensemble(seed=21, replicas=4000)
    ident = CouplingSchedule(kind="identity")
    fam = temporal_oscillation_family(0.5)
    entry = integral_gap(GRID, 1, fam, zero_limit, ident, 4, ens, "strong")
    dist, dist_se = pairing_l2_distance(GRID, 1, fam, zero_limit, 4, ens)
    assert abs(entry.statistic - dist) <= 3.0 * (entry.stderr + dist_se)


def test_decomposition_cauchy_schwarz_consistency():
    ens = Ensemble(seed=22, replicas=1200)
    fam = weak_omega_family(lambda t: 1.0 + 0.3 * np.cos(2 * np.pi * t),
                            lambda t: np.sin(2 * np.pi * t))
    for n, rho in ((1, 0.2), (4, 0.1), (16, 0.05)):
        rep = decompose(GRID, 1, fam, constant_limit(1.0), SCHED, n, rho, ens)
        assert rep.cauchy_schwarz_consistent()
        assert rep.triangle_consistent()


def test_counterexample_sine_quarter():
    ens = Ensemble(seed=11, replicas=20_000)
    rep = counterexample_sine(16, ens, GRID, SCHED)
    assert abs(rep.second_moment - 0.25) <= 0.03 * 0.25
    for name, (val, se) in rep.pairings.items():
        assert abs(val) <= 3 * se


def test_counterexample_sine_requires_unit_horizon():
    with pytest.raises(ConfigurationError):
        counterexample_sine(4, Ensemble(seed=1, replicas=200), TimeGrid(2.0, 256))


def test_counterexample_spike_standard_normal():
    ens = Ensemble(seed=12, replicas=20_000)
    rep = counterexample_spike(16, ens, GRID, SCHED)
    assert abs(rep.variance - 1.0) <= 0.03
    assert abs(rep.mean) <= 3 * rep.mean_stderr
    assert abs(rep.tail_fraction - 0.05) <= 0.01
    assert rep.l2_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert rep.linear_pairing == pytest.approx(1.0 / (2.0 * 16 ** 1.5), abs=1e-10)


def test_counterexample_spike_rejects_unresolved_grid():
    ens = Ensemble(seed=1, replicas=200)
    with pytest.raises(ConfigurationError):
        counterexample_spike(64, ens, GRID)  # needs >= 512 steps
    with pytest.raises(ConfigurationError):
        counterexample_spike(24, ens, TimeGrid(1.0, 256))  # 256 % 24 != 0


def test_counterexample_persistence_across_n():
    # the sine anomaly never fades: second moment > 0.2 up to n = 64
    ens = Ensemble(seed=13, replicas=5000)
    grid = TimeGrid(1.0, 512)
    for n in (4, 16, 64):
        rep = counterexample_sine(n, ens, grid, SCHED)
        assert rep.second_moment > 0.2


def test_chunking_does_not_change_counterexample_bits(monkeypatch):
    # 3000 replicas run as one chunk, then as three chunks of 1000
    ens = Ensemble(seed=14, replicas=3000)
    a = counterexample_sine(4, ens, GRID, SCHED)
    monkeypatch.setattr(convergence_lab, "_CHUNK", 1000)
    b = counterexample_sine(4, ens, GRID, SCHED)
    assert a.second_moment == b.second_moment
    assert a.stderr == b.stderr


def test_l1_torus_mode_spatial_oscillation():
    # V_n = v (1 + sin(2 pi n x)): the pairing converges strongly, and the
    # n = 32 strong statistic drops far below a quarter of the n = 2 one
    grid = TimeGrid(1.0, 128)
    ens = Ensemble(seed=15, replicas=2000)
    beta = TestFunction.from_callable(64, lambda x: 1.0 + np.sin(4 * np.pi * x))
    v = lambda t, x: (1.0 + 0.5 * np.cos(2 * np.pi * x)) * (1.0 + 0.3 * t)
    fam = spatial_oscillation_family(64, v)

    def limit_v(draw):
        t = draw.W.grid.left_nodes
        x = np.arange(64) / 64
        vals = v(t[:, None], x[None, :])
        return AdaptedProcess(draw.W.grid, vals[:, :, None], "field")

    out = l1_torus_mode(grid, 1, beta, fam, limit_v, SCHED, [2, 8, 32], ens,
                        mode="strong", p=3.0)
    assert not out.invalid
    vals = [e.statistic for e in out.report.entries]
    assert vals[2] <= vals[0] / 4.0


def test_l1_torus_mode_identical_family_and_annihilating_functional():
    grid = TimeGrid(1.0, 64)
    ens = Ensemble(seed=16, replicas=500)
    beta0 = TestFunction.from_callable(32, lambda x: np.zeros_like(x))
    v = lambda t, x: np.ones_like(t * x)
    fam_const = spatial_oscillation_family(32, lambda t, x: np.ones_like(t * x) * 0.0)

    def limit0(draw):
        t = draw.W.grid.left_nodes
        return AdaptedProcess(draw.W.grid, np.zeros((draw.W.grid.steps, 32, 1)), "field")

    out = l1_torus_mode(grid, 1, beta0, fam_const, limit0, SCHED, [2, 8], ens,
                        mode="strong", p=3.0)
    assert all(e.statistic == 0.0 for e in out.report.entries)
