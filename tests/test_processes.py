import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlab._util import pairwise_sum
from stochlab.convergence_lab import Statistic, _test_variables, run_pass
from stochlab.errors import ConfigurationError, GridMismatchError
from stochlab.processes import (AdaptedProcess, DependencyTag, Ensemble,
                                ExponentSet, TestFunction, pair)
from stochlab.wiener import TimeGrid, sample_wiener

GRID = TimeGrid(1.0, 64)


def lp_norm(make_process, p_omega, p_t, ensemble, grid):
    """(E ||V||_{L^{p_t}}^{p_omega})^{1/p_omega} by one batched pass, left-node rule in time."""
    def sample(batch):
        mag = make_process(batch).node_magnitude()
        power = (np.sum(mag ** p_t, axis=-1) * grid.dt) ** (p_omega / p_t)
        return {"power": np.broadcast_to(power, (len(batch),))}

    def finish(s):
        return float((pairwise_sum(s["power"]) / ensemble.replicas) ** (1.0 / p_omega))
    return run_pass(grid, 1, Statistic(ensemble, sample, finish))[0]


def weak_gap(make_Vn, make_V, duals, ys, ensemble, grid):
    """max over (zeta, Y) of |E[Y int_0^T zeta (V_n - V) dt]| by one batched pass.

    ys(batch) gives the test variables, one column each; an empty dual list
    vacuously gives 0.
    """
    if not duals:
        return 0.0

    def sample(batch):
        diff = make_Vn(batch).values - make_V(batch).values
        inner = np.stack([np.broadcast_to(np.sum(np.asarray(z) * diff, axis=-1) * grid.dt,
                                          (len(batch),)) for z in duals], axis=1)
        return {"pairings": inner[:, :, None] * ys(batch)[:, None, :]}

    def finish(s):
        return float(np.max(np.abs(pairwise_sum(s["pairings"], axis=0) / ensemble.replicas)))
    return run_pass(grid, 1, Statistic(ensemble, sample, finish))[0]


def path_nodes(batch):
    """V(t_j) = W(t_j) at the left nodes, one row per replica."""
    return AdaptedProcess(batch.grid, batch.W.values[:, :-1, 0], "scalar",
                          DependencyTag(frozenset({"W"})))


def field_process(grid, fn, cells=256, k=1):
    x = np.arange(cells) / cells
    t = grid.left_nodes
    vals = fn(t[:, None], x[None, :])
    return AdaptedProcess(grid, np.repeat(vals[:, :, None], k, axis=2), "field")


def test_pair_constant_field_unit_torus():
    beta = TestFunction.one(256)
    V = field_process(GRID, lambda t, x: 3.5 * np.ones_like(t * x))
    paired = pair(beta, V)
    assert paired.kind == "matrix"
    assert np.allclose(paired.values, 3.5)


def test_pair_sine_against_sine_is_half_g():
    beta = TestFunction.from_callable(256, lambda x: np.sin(2 * np.pi * x))
    g = lambda t: 1.0 + 0.5 * np.cos(2 * np.pi * t)
    V = field_process(GRID, lambda t, x: np.sin(2 * np.pi * x) * g(t))
    paired = pair(beta, V)
    expected = 0.5 * g(GRID.left_nodes)
    assert np.max(np.abs(paired.values[:, 0, 0] - expected)) < 1e-10


def test_pair_orthogonality():
    beta = TestFunction.from_callable(256, lambda x: np.sin(2 * np.pi * x))
    V = field_process(GRID, lambda t, x: np.ones_like(t * x))
    paired = pair(beta, V)
    assert np.max(np.abs(paired.values)) < 1e-12


def test_pair_grid_mismatch_rejected():
    beta = TestFunction.one(128)
    V = field_process(GRID, lambda t, x: np.ones_like(t * x), cells=256)
    with pytest.raises(GridMismatchError):
        pair(beta, V)


def test_pair_linearity_and_linf_bound():
    beta = TestFunction.from_callable(256, lambda x: np.cos(2 * np.pi * x) + 0.3)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal((GRID.steps, 256))
    f2 = rng.standard_normal((GRID.steps, 256))
    V1 = AdaptedProcess(GRID, f1[:, :, None], "field")
    V2 = AdaptedProcess(GRID, f2[:, :, None], "field")
    a, b = 1.7, -0.4
    lhs = pair(beta, a * V1 + b * V2).values
    rhs = a * pair(beta, V1).values + b * pair(beta, V2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # |<beta, V>(t)| <= max|beta| * spatial L1 of V(t)
    paired = np.abs(pair(beta, V1).values[:, 0, 0])
    l1 = np.mean(np.abs(f1), axis=1)
    assert np.all(paired <= np.max(np.abs(beta.values)) * l1 + 1e-12)


def test_tag_propagation_through_algebra_and_pair():
    W = sample_wiener(GRID, 1, seed=1, replica=0)
    future = AdaptedProcess.from_path_nodes(W, node_offset=1)
    ok = AdaptedProcess.from_path_nodes(W)
    combo = 2.0 * ok + future
    assert not combo.tag.predictable
    beta = TestFunction.one(16)
    field_vals = np.repeat(future.values[:, None, None], 16, axis=1)
    V = AdaptedProcess(GRID, field_vals, "field", future.tag)
    assert not pair(beta, V).tag.predictable


def test_test_function_derivative_consistency():
    good = TestFunction.from_callable(
        256, lambda x: np.sin(2 * np.pi * x),
        lambda x: 2 * np.pi * np.cos(2 * np.pi * x),
        lambda x: -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x))
    assert good.cells == 256
    with pytest.raises(ConfigurationError):
        TestFunction.from_callable(256, lambda x: np.sin(2 * np.pi * x),
                                   lambda x: np.cos(2 * np.pi * x))  # wrong scale


def test_exponent_set():
    e = ExponentSet(3.0)
    assert e.p_prime == pytest.approx(1.5)
    assert e.p_dprime == pytest.approx(3.0)
    with pytest.raises(ConfigurationError):
        ExponentSet(2.0)


def test_lp_norm_trivial_and_normalised():
    ens = Ensemble(seed=3, replicas=4)
    zero = lambda d: AdaptedProcess(GRID, np.zeros(GRID.steps), "scalar")
    one = lambda d: AdaptedProcess(GRID, np.ones(GRID.steps), "scalar")
    assert lp_norm(zero, 2, 2, ens, GRID) == 0.0
    assert lp_norm(one, 3, 5, ens, GRID) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        Ensemble(seed=1, replicas=0)


def test_lp_norm_wiener_oracle():
    # E int_0^1 W^2 dt = 1/2, so the (2,2) norm is 1/sqrt(2) up to MC error
    grid = TimeGrid(1.0, 128)
    ens = Ensemble(seed=5, replicas=10_000)
    val = lp_norm(path_nodes, 2, 2, ens, grid)
    assert abs(val - 1.0 / np.sqrt(2.0)) < 0.05 / np.sqrt(2.0)


def test_weak_gap_vacuous_and_identical():
    ens = Ensemble(seed=7, replicas=200)
    make = path_nodes
    ys = _test_variables
    assert weak_gap(make, make, [], ys, ens, GRID) == 0.0
    gap = weak_gap(make, make, [np.ones(GRID.steps)], ys, ens, GRID)
    assert gap == 0.0


def test_weak_gap_oscillating_family_decays():
    # V_n = sin(2 pi n omega0) g(t) pairs to ~ 0.5 int g at n=1 against
    # sin(2 pi omega0), and to ~ 0 at n=16 (sine orthogonality)
    grid = TimeGrid(1.0, 32)
    ens = Ensemble(seed=11, replicas=4_000)
    g = np.ones(grid.steps)
    ys = lambda d: np.sin(2 * np.pi * d.omega0)[:, None]
    zero = lambda d: AdaptedProcess(grid, np.zeros(grid.steps), "scalar")

    def family(n):
        def make(d):
            vals = np.sin(2 * np.pi * n * d.omega0)[:, None] * g
            return AdaptedProcess(grid, vals, "scalar", DependencyTag.initial())
        return make

    gap1 = weak_gap(family(1), zero, [g], ys, ens, grid)
    gap16 = weak_gap(family(16), zero, [g], ys, ens, grid)
    assert abs(gap1 - 0.5) < 0.05
    assert gap16 < 0.05


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.floats(-3, 3), st.floats(-3, 3))
def test_process_algebra_merges_tags(node, a, b):
    W = sample_wiener(GRID, 1, seed=2, replica=0)
    base = AdaptedProcess.from_path_nodes(W)
    det = AdaptedProcess.deterministic(GRID, lambda t: t ** 2)
    combo = a * base + b * det
    assert combo.tag.sources == frozenset({"W"})
    assert combo.tag.predictable
    assert np.allclose(combo.values, a * base.values + b * det.values)
