import numpy as np
import pytest

from stochlab.errors import ConfigurationError
from stochlab.translation import (EXACT_SLOPE, fit_translation_rate,
                                  standard_lag_ladder, translation_modulus)
from stochlab.wiener import TimeGrid, increment_chunk

GRID = TimeGrid(1.0, 1024)


def path_ensemble(fn, replicas=1):
    t = GRID.nodes
    return np.vstack([fn(t) for _ in range(replicas)])


def test_constant_paths_have_zero_modulus():
    paths = path_ensemble(lambda t: np.full_like(t, 2.7), replicas=4)
    for h in (1 / 256, 1 / 16):
        assert translation_modulus(paths, GRID, h).value == 0.0


def test_linear_ramp_closed_form():
    # F(t) = t: E int_h^T |F(t)-F(t-h)| dt = h (T - h), trapezoid-exact
    paths = path_ensemble(lambda t: t)
    for h in (1 / 256, 1 / 64, 1 / 8):
        got = translation_modulus(paths, GRID, h).value
        assert got == pytest.approx(h * (1.0 - h), abs=1e-10)


def test_oscillating_family_keeps_order_one_modulus():
    # F(t) = sin(2 pi n t): modulus ~ (4/pi)|sin(pi n h)| (1-h) stays order 1
    # when n h is order 1 -- the counterexample family's signature
    fine = TimeGrid(1.0, 8192)
    t = fine.nodes
    for n, h in ((8, 1 / 16), (16, 1 / 32)):
        paths = np.sin(2 * np.pi * n * t)[None, :]
        got = translation_modulus(paths, fine, h).value
        expected = (4.0 / np.pi) * abs(np.sin(np.pi * n * h)) * (1.0 - h)
        assert got == pytest.approx(expected, rel=2e-3)
        assert got > 0.5


def test_lag_snapping_flagged():
    paths = path_ensemble(lambda t: t)
    odd = 1.37 * GRID.dt
    out = translation_modulus(paths, GRID, odd)
    assert out.snapped
    assert out.h == pytest.approx(GRID.dt)
    with pytest.raises(ConfigurationError):
        translation_modulus(paths, GRID, 2.0)
    with pytest.raises(ConfigurationError):
        translation_modulus(paths, GRID, 0.2 * GRID.dt)


def test_subadditivity_in_lag():
    dW = increment_chunk(GRID, 1, 31, 0, 64)[:, :, 0]
    paths = np.concatenate([np.zeros((64, 1)), np.cumsum(dW, axis=1)], axis=1)
    for h in (1 / 256, 1 / 64, 1 / 16):
        m1 = translation_modulus(paths, GRID, h).value
        m2 = translation_modulus(paths, GRID, 2 * h).value
        assert m2 <= 2.0 * m1 + 1e-9


def test_rate_fit_linear_ramp_slope_one():
    # modulus h (T - h): the (T - h) bend costs ~h/T, so fit on small lags
    paths = path_ensemble(lambda t: t)
    lags = standard_lag_ladder(GRID, finest=10, coarsest=5)
    fit = fit_translation_rate({1: paths}, GRID, lags)
    assert fit.slopes[1] == pytest.approx(1.0, abs=0.02)


def test_rate_fit_martingale_slope_half():
    # F = int g dW with bounded deterministic g: E|F(t)-F(t-h)| ~ sqrt(h)
    dW = increment_chunk(GRID, 1, 33, 0, 512)[:, :, 0]
    g = 1.0 + 0.5 * np.sin(2 * np.pi * GRID.left_nodes)
    F = np.concatenate([np.zeros((512, 1)), np.cumsum(g[None, :] * dW, axis=1)], axis=1)
    fit = fit_translation_rate({1: F}, GRID, standard_lag_ladder(GRID))
    assert abs(fit.slopes[1] - 0.5) <= 0.1


def test_rate_fit_weak_in_omega_family_costs_nothing_in_time():
    # F(omega, t) = sin(2 pi n omega0) g(t): slope >= 0.9, modulus uniform in n
    rng = np.random.default_rng(7)
    t = GRID.nodes
    g = np.sin(2 * np.pi * t) + 0.3 * np.cos(4 * np.pi * t)
    ensembles = {}
    for n in (1, 4, 16):
        amp = np.sin(2 * np.pi * n * rng.uniform(size=256))
        ensembles[n] = amp[:, None] * g[None, :]
    fit = fit_translation_rate(ensembles, GRID, standard_lag_ladder(GRID))
    assert fit.worst_slope() >= 0.9
    assert np.all(fit.uniform_ratio <= 1.6)


def test_degenerate_moduli_report_exact_sentinel():
    paths = path_ensemble(lambda t: np.zeros_like(t), replicas=3)
    fit = fit_translation_rate({1: paths}, GRID, standard_lag_ladder(GRID))
    assert fit.slopes[1] == EXACT_SLOPE


def test_fit_requires_enough_octaves():
    paths = path_ensemble(lambda t: t)
    with pytest.raises(ConfigurationError):
        fit_translation_rate({1: paths}, GRID, [1 / 8, 1 / 9, 1 / 10, 1 / 11])
    with pytest.raises(ConfigurationError):
        fit_translation_rate({1: paths}, GRID, [1 / 8, 1 / 16, 1 / 64])


def test_zero_modulus_implies_constant_paths():
    # modulus below 1e-12 at every lag forces grid-constant paths
    paths = path_ensemble(lambda t: np.full_like(t, -1.3), replicas=5)
    lags = standard_lag_ladder(GRID)
    vals = [translation_modulus(paths, GRID, h).value for h in lags]
    assert max(vals) < 1e-12
    assert np.all(paths == paths[:, :1])
