import numpy as np
import pytest

from stochlab._util import mean_and_stderr
from stochlab.convergence_lab import Statistic, run_pass
from stochlab.errors import ConfigurationError, GridMismatchError, PredictabilityError
from stochlab.ito import batch_ito_integral, discrete_ito_identity_residual, ito_integral
from stochlab.processes import AdaptedProcess, DependencyTag, Ensemble
from stochlab.wiener import ReplicaBatch, ReplicaDraw, TimeGrid, sample_wiener

GRID = TimeGrid(1.0, 128)


def isometry_residual(make_V, grid, seed, samples):
    """E |int_0^T V dW|^2 and E int_0^T |V|^2 dt by one batched pass, with the
    z-score of their per-replica differences."""
    def sample(batch):
        V = make_V(batch)
        quad = np.sum(V.node_magnitude() ** 2, axis=-1) * grid.dt
        return {"sq": batch_ito_integral(V, batch.W)[:, 0] ** 2,
                "quad": np.broadcast_to(quad, (len(batch),))}

    def finish(s):
        lhs, _ = mean_and_stderr(s["sq"])
        rhs, _ = mean_and_stderr(s["quad"])
        diff_mean, diff_se = mean_and_stderr(s["sq"] - s["quad"])
        return lhs, rhs, diff_mean / diff_se if diff_se > 0 else 0.0
    return run_pass(grid, 1, Statistic(Ensemble(seed, samples), sample, finish))[0]


def test_zero_integrand():
    W = sample_wiener(GRID, 1, seed=1, replica=0)
    V = AdaptedProcess(GRID, np.zeros(GRID.steps), "scalar")
    assert ito_integral(V, W) == 0.0


def test_unit_integrand_telescopes_to_path_value():
    W = sample_wiener(GRID, 1, seed=2, replica=0)
    V = AdaptedProcess(GRID, np.ones(GRID.steps), "scalar")
    for upto in (0, 17, GRID.steps):
        assert ito_integral(V, W, upto) == pytest.approx(W.values[upto, 0], abs=1e-14)


def test_left_sum_of_path_matches_expansion_oracle():
    # sum_j W_j dW_j = (W_t^2 - sum dW^2)/2, node by node, by direct expansion
    W = sample_wiener(GRID, 1, seed=3, replica=0)
    V = AdaptedProcess.from_path_nodes(W)
    w = W.values[:, 0]
    dw = np.diff(w)
    for upto in (1, 40, GRID.steps):
        oracle = 0.5 * (w[upto] ** 2 - np.sum(dw[:upto] ** 2))
        assert ito_integral(V, W, upto) == pytest.approx(oracle, abs=1e-12)


def test_discrete_identity_residual_on_thousand_paths():
    worst = max(
        discrete_ito_identity_residual(sample_wiener(GRID, 1, seed=5, replica=r))
        for r in range(1000)
    )
    assert worst <= 1e-12


def test_predictability_violation_is_a_hard_error():
    W = sample_wiener(GRID, 1, seed=4, replica=0)
    V = AdaptedProcess.from_path_nodes(W, node_offset=1)
    with pytest.raises(PredictabilityError):
        ito_integral(V, W)
    with pytest.raises(PredictabilityError):
        batch_ito_integral(V, ReplicaBatch(GRID, 1, 4, 0, 3).W)


def test_grid_and_shape_errors():
    W = sample_wiener(GRID, 2, seed=4, replica=0)
    V = AdaptedProcess(GRID, np.ones(GRID.steps), "scalar")
    with pytest.raises(GridMismatchError):
        ito_integral(V, W)  # scalar against 2-d driver
    V3 = AdaptedProcess(GRID, np.ones((GRID.steps, 1, 3)), "matrix")
    with pytest.raises(GridMismatchError):
        ito_integral(V3, W)
    W1 = sample_wiener(TimeGrid(1.0, 64), 1, seed=4, replica=0)
    with pytest.raises(GridMismatchError):
        ito_integral(V, W1)
    with pytest.raises(ConfigurationError):
        ito_integral(V, sample_wiener(GRID, 1, seed=4, replica=0), upto=GRID.steps + 1)


def test_matrix_integrand_contracts_columns():
    W = sample_wiener(GRID, 2, seed=6, replica=0)
    M = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, -1.0]])
    V = AdaptedProcess.constant_matrix(GRID, M)
    out = ito_integral(V, W)
    wT = W.final()
    assert out.shape == (3,)
    assert np.allclose(out, M @ wT)


def test_bilinearity():
    W = sample_wiener(GRID, 1, seed=7, replica=0)
    V1 = AdaptedProcess.from_path_nodes(W, transform=np.sin)
    V2 = AdaptedProcess.deterministic(GRID, lambda t: t)
    a, b = 2.5, -1.25
    lhs = ito_integral(a * V1 + b * V2, W)
    rhs = a * ito_integral(V1, W) + b * ito_integral(V2, W)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_isometry_deterministic_ramp():
    # V(t) = t on [0,1]: E int V^2 dt = 1/3 up to the left-rule discretisation
    grid = TimeGrid(1.0, 1024)
    make = lambda d: AdaptedProcess.deterministic(grid, lambda t: t)
    lhs, rhs, z = isometry_residual(make, grid, seed=8, samples=20_000)
    assert abs(rhs - 1.0 / 3.0) < 2e-3
    assert abs(lhs - 1.0 / 3.0) < 0.02 / 3.0
    assert abs(z) <= 3.0


def test_isometry_unit_integrand():
    make = lambda d: AdaptedProcess(GRID, np.ones(GRID.steps), "scalar")
    lhs, rhs, z = isometry_residual(make, GRID, seed=9, samples=10_000)
    assert rhs == pytest.approx(1.0)
    assert abs(lhs - 1.0) < 0.05
    assert abs(z) <= 3.0


def test_isometry_sine_counterexample_member():
    # F_n = sin(2 pi n omega0) sin(2 pi n t): both sides sit at 1/4
    n = 8

    def make(d):
        vals = (np.sin(2 * np.pi * n * d.omega0)[:, None]
                * np.sin(2 * np.pi * n * GRID.left_nodes))
        return AdaptedProcess(GRID, vals, "scalar", DependencyTag.initial())

    lhs, rhs, z = isometry_residual(make, GRID, seed=10, samples=20_000)
    assert abs(lhs - 0.25) < 0.01
    assert abs(rhs - 0.25) < 0.01
    assert abs(z) <= 3.0


def test_martingale_mean_surrogate():
    # E int V dW = 0 within 3 stderr for a bounded predictable integrand
    make = lambda d: AdaptedProcess.from_path_nodes(d.W, transform=np.tanh)
    vals = []
    for r in range(5000):
        d = ReplicaDraw.sample(GRID, 1, 12, r)
        vals.append(ito_integral(make(d), d.W))
    vals = np.asarray(vals)
    assert abs(vals.mean()) <= 3 * vals.std() / np.sqrt(len(vals))
