import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlab.errors import ConfigurationError
from stochlab.mollify import (MollifierKernel, adjoint_mollify,
                              adjoint_mollify_derivative, bump, bump_derivative, mollify,
                              mollify_derivative, mollify_left_nodes, time_inner)
from stochlab.wiener import TimeGrid

GRID = TimeGrid(1.0, 1024)


def random_smooth(rng, grid, modes=6):
    t = grid.nodes
    out = np.zeros_like(t)
    for m in range(1, modes + 1):
        out += rng.standard_normal() * np.cos(2 * np.pi * m * t / grid.horizon)
        out += rng.standard_normal() * np.sin(2 * np.pi * m * t / grid.horizon)
    return out


def test_kernel_invariants():
    K = MollifierKernel(0.1)
    assert abs(K.mass_up_to(0.1) - 1.0) <= 1e-8
    assert K.density(np.array([0.0]))[0] == 0.0
    assert K.density(np.array([0.1]))[0] == 0.0
    assert np.all(K.density(np.linspace(0, 0.1, 101)) >= 0.0)
    with pytest.raises(ConfigurationError):
        MollifierKernel(-0.1)


def test_kernel_mass_concentrates_below_any_fixed_delta():
    # int_0^delta R_rho -> 1 as rho -> 0, already exact once rho <= delta
    delta = 0.08
    masses = [MollifierKernel(rho).mass_up_to(delta) for rho in (0.3, 0.15, 0.06)]
    assert masses[0] < masses[1] < masses[2]
    assert abs(masses[2] - 1.0) <= 1e-6


def test_unit_function_smooths_to_one_past_the_width():
    K = MollifierKernel(0.1)  # 102 grid steps wide: fully resolved
    out = mollify(K, GRID, np.ones(GRID.steps + 1))
    j0 = GRID.node_index(0.1)
    assert out[0] == 0.0  # empty integration range at t = 0
    assert np.max(np.abs(out[j0 + 1:] - 1.0)) <= 1e-6


def test_adjoint_unit_function():
    K = MollifierKernel(0.1)
    out = adjoint_mollify(K, GRID, np.ones(GRID.steps + 1))
    jT = GRID.node_index(1.0 - 0.1)
    assert np.max(np.abs(out[:jT - 1] - 1.0)) <= 1e-6
    assert out[-1] == 0.0


def test_unresolved_width_rejected():
    K = MollifierKernel(3.0 * GRID.dt)
    with pytest.raises(ConfigurationError):
        mollify(K, GRID, np.ones(GRID.steps + 1))


def test_approximation_improves_with_width():
    f = np.sin(2 * np.pi * GRID.nodes)
    errs = []
    for rho in (0.1, 0.05, 0.025):
        out = mollify(MollifierKernel(rho), GRID, f)
        errs.append(np.sqrt(time_inner(GRID, f - out, f - out)))
    assert errs[0] > errs[1] > errs[2]


def test_contraction_in_lr_norms():
    rng = np.random.default_rng(1)
    K = MollifierKernel(0.05)
    for _ in range(5):
        f = random_smooth(rng, GRID)
        out = mollify(K, GRID, f)
        for r in (1.0, 2.0, 3.0):
            w = np.full(GRID.steps + 1, GRID.dt)
            w[0] = w[-1] = GRID.dt / 2
            nf = (np.sum(w * np.abs(f) ** r)) ** (1 / r)
            nout = (np.sum(w * np.abs(out) ** r)) ** (1 / r)
            assert nout <= nf * (1.0 + 1e-6)


def test_adjoint_identity_machine_exact():
    rng = np.random.default_rng(2)
    K = MollifierKernel(0.07)
    for _ in range(20):
        f = rng.standard_normal(GRID.steps + 1)
        g = rng.standard_normal(GRID.steps + 1)
        lhs = time_inner(GRID, mollify(K, GRID, f), g)
        rhs = time_inner(GRID, f, adjoint_mollify(K, GRID, g))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_derivative_adjoint_antisymmetry():
    rng = np.random.default_rng(3)
    K = MollifierKernel(0.07)
    for _ in range(20):
        f = random_smooth(rng, GRID)
        g = random_smooth(rng, GRID)
        lhs = time_inner(GRID, mollify_derivative(K, GRID, f), g)
        rhs = time_inner(GRID, f, adjoint_mollify_derivative(K, GRID, g))
        assert abs(lhs + rhs) <= 1e-8


def test_derivative_of_smoothed_unit_recovers_kernel():
    # d/dt int_0^t R_rho(t-s) ds = R_rho(t). The pointwise consistency of the
    # derivative operator is O(dt^2) (trapezoid endpoint inside the support),
    # so the 1e-6 relative match needs the kernel well resolved.
    fine = TimeGrid(1.0, 8192)
    K = MollifierKernel(0.25)
    out = mollify_derivative(K, fine, np.ones(fine.steps + 1))
    expected = K.density(fine.nodes)
    assert np.max(np.abs(out - expected)) <= 1e-6 * np.max(expected)


def test_zero_function_maps_to_zero():
    K = MollifierKernel(0.05)
    assert np.all(mollify_derivative(K, GRID, np.zeros(GRID.steps + 1)) == 0.0)


def test_causality_is_bit_exact():
    K = MollifierKernel(0.05)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(GRID.steps + 1)
    cut = 400
    g = f.copy()
    g[cut + 1:] += rng.standard_normal(GRID.steps - cut)
    out_f = mollify(K, GRID, f)
    out_g = mollify(K, GRID, g)
    assert np.array_equal(out_f[:cut + 1], out_g[:cut + 1])


def test_anticausal_support_property():
    K = MollifierKernel(0.1)
    g = np.zeros(GRID.steps + 1)
    g[-30:] = 1.0  # supported near T
    out = adjoint_mollify(K, GRID, g)
    first_support = GRID.nodes[GRID.steps - 29]
    cutoff = GRID.node_index(first_support - 0.1)
    assert np.all(out[:cutoff - 1] == 0.0)


def test_smoothing_payoff_bound():
    # ||d(Kf)||_{L2} <= C(rho) ||f||_{L2} with C = ||dR_rho||_{L1}
    rng = np.random.default_rng(5)
    K = MollifierKernel(0.05)
    C = K.derivative_l1(GRID)
    for _ in range(5):
        f = rng.standard_normal(GRID.steps + 1)
        out = mollify_derivative(K, GRID, f)
        nf = np.sqrt(time_inner(GRID, f, f))
        nout = np.sqrt(time_inner(GRID, out, out))
        assert nout <= C * nf * (1.0 + 1e-6)


def test_left_node_smoothing_shape_and_causality():
    K = MollifierKernel(0.05)
    vals = np.sin(2 * np.pi * GRID.left_nodes)
    out = mollify_left_nodes(K, GRID, vals)
    assert out.shape == vals.shape
    assert out[0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.3), st.integers(0, 2 ** 31 - 1))
def test_adjoint_identity_property(rho, seed):
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(seed)
    K = MollifierKernel(rho)
    f = rng.standard_normal(grid.steps + 1)
    g = rng.standard_normal(grid.steps + 1)
    lhs = time_inner(grid, mollify(K, grid, f), g)
    rhs = time_inner(grid, f, adjoint_mollify(K, grid, g))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def masked_bump(u):
    """The bump by its definition: exp(-1 / (u (1 - u))) on (0, 1), +0.0 elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    g = u[inside] * (1.0 - u[inside])
    out[inside] = np.exp(-1.0 / g)
    return out


def test_bump_equals_the_masked_definition_bit_for_bit():
    # the edges of (0, 1) in both signs of zero, the smallest subnormal, the
    # last double below 1, points outside, NaN and the infinities; each alone
    # (0-d) and all in one array, compared as bit patterns
    edges = [-0.0, 0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 2.0 ** -53, 1e-300, 0.5,
             -5e-324, -1.0, 1.0 + 2.0 ** -52, 3.0, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(3)
    u = np.concatenate([edges, rng.uniform(-0.5, 1.5, 200), np.full(40, -0.0)])
    with np.errstate(over="ignore"):
        for x in [*edges, u, u.reshape(5, -1)]:
            got = bump(x)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
            assert np.array_equal(got.view(np.int64), masked_bump(x).view(np.int64))
        assert not np.any(np.signbit(bump(u)))


def test_bump_derivative_is_zero_where_the_exponential_underflows():
    # exp(-1/g) * (1 - 2u) / g^2 is 0 / 0 once g * g underflows (u below about
    # 1.5e-162): the derivative gives +0.0 there, with no warning, and keeps
    # the bits of that formula elsewhere, the -0.0 of u = 1 - 2^-53 included
    tiny = np.array([1e-200, 1e-170, 5e-324, 1e-163])
    u = np.concatenate([np.linspace(-0.5, 1.5, 2001),
                        [0.0, -0.0, 1.0, 1e-3, 2e-3, 1e-150, 0.5, 1 - 2.0 ** -53, 2.0 ** -53]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_tiny, got = bump_derivative(tiny), bump_derivative(u)
    assert np.array_equal(got_tiny.view(np.int64), np.zeros(4).view(np.int64))
    inside = (u > 0.0) & (u < 1.0)
    v = u[inside]
    g = v * (1.0 - v)
    want = np.zeros_like(u)
    want[inside] = np.exp(-1.0 / g) * (1.0 - 2.0 * v) / (g * g)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.count_nonzero(got) > 900
