import numpy as np
import pytest

from stochlab.errors import ConfigurationError, GridMismatchError
from stochlab.wiener import (CouplingSchedule, ReplicaBatch, ReplicaDraw, TimeGrid, WienerPath,
                             aggregate_increments, couple, increment_chunk,
                             initial_chunk,
                             sample_wiener, sup_distance)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        TimeGrid(1.0, 0)
    with pytest.raises(ConfigurationError):
        TimeGrid(-1.0, 4)
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    assert np.all(np.diff(g.nodes) > 0)


def test_single_step_grid_and_initial_condition():
    g = TimeGrid(1.0, 1)
    W = sample_wiener(g, 1, seed=3, replica=0)
    assert W.values.shape == (2, 1)
    assert W.values[0, 0] == 0.0


def test_zero_dimension_rejected():
    with pytest.raises(ConfigurationError):
        sample_wiener(TimeGrid(1.0, 4), 0, seed=1, replica=0)


def test_regeneration_is_bit_identical():
    g = TimeGrid(1.0, 64)
    W1 = sample_wiener(g, 3, seed=42, replica=7)
    W2 = sample_wiener(g, 3, seed=42, replica=7)
    assert W1.values.tobytes() == W2.values.tobytes()
    W3 = sample_wiener(g, 3, seed=42, replica=8)
    assert W1.values.tobytes() != W3.values.tobytes()


def test_terminal_variance_matches_unit_rate():
    # Var W(1) = 1, Monte Carlo at 1e4 replicas within 5%
    g = TimeGrid(1.0, 32)
    finals = increment_chunk(g, 1, 5, 0, 10_000).sum(axis=1)[:, 0]
    assert abs(np.var(finals) - 1.0) < 0.05


def test_increment_lag1_autocorrelation_near_zero():
    g = TimeGrid(1.0, 64)
    dW = increment_chunk(g, 1, 9, 0, 10_000)[:, :, 0]
    x, y = dW[:, :-1].ravel(), dW[:, 1:].ravel()
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.03


def test_couple_identity_and_law():
    g = TimeGrid(1.0, 32)
    W = sample_wiener(g, 1, seed=1, replica=0)
    B = sample_wiener(g, 1, seed=1, replica=0, stream=1)
    assert couple(W, B, 0.0) is W
    finals = []
    for r in range(10_000):
        Wr = sample_wiener(g, 1, seed=1, replica=r)
        Br = sample_wiener(g, 1, seed=1, replica=r, stream=1)
        finals.append(couple(Wr, Br, 1.0).final()[0])
    assert abs(np.var(finals) - 1.0) < 0.05


def test_couple_rejects_mismatches_and_same_stream():
    W = sample_wiener(TimeGrid(1.0, 32), 1, seed=1, replica=0)
    other_grid = sample_wiener(TimeGrid(1.0, 16), 1, seed=1, replica=0, stream=1)
    other_dim = sample_wiener(TimeGrid(1.0, 32), 2, seed=1, replica=0, stream=1)
    with pytest.raises(GridMismatchError):
        couple(W, other_grid, 0.5)
    with pytest.raises(GridMismatchError):
        couple(W, other_dim, 0.5)
    with pytest.raises(ConfigurationError):
        couple(W, W, 0.5)


def test_pathwise_coupling_bound():
    # sup|W_n - W| <= |1 - (1+a^2)^{-1/2}| sup|W| + a (1+a^2)^{-1/2} sup|B|
    g = TimeGrid(1.0, 256)
    W = sample_wiener(g, 1, seed=11, replica=0)
    B = sample_wiener(g, 1, seed=11, replica=0, stream=1)
    sup_w = np.max(np.abs(W.values))
    sup_b = np.max(np.abs(B.values))
    dists = []
    for a in (1.0, 0.25, 1.0 / 16.0):
        Wn = couple(W, B, a)
        d = sup_distance(Wn, W)
        alpha = 1.0 / np.sqrt(1 + a * a)
        assert d <= abs(1 - alpha) * sup_w + a * alpha * sup_b + 1e-12
        dists.append(d)
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] < 0.2 * (sup_w + sup_b)


def test_sup_distance_trivial_and_invariant_enforcement():
    g = TimeGrid(1.0, 16)
    W = sample_wiener(g, 2, seed=2, replica=0)
    assert sup_distance(W, W) == 0.0
    shifted = W.values.copy()
    shifted[1:] += 3.0  # constant shift off every node but the origin
    W2 = WienerPath(g, 2, shifted)  # stays a valid path: W(0) = 0 kept
    assert sup_distance(W, W2) == pytest.approx(3.0 * np.sqrt(2))
    bad = W.values.copy()
    bad += 1.0
    with pytest.raises(ConfigurationError):
        WienerPath(g, 2, bad)


def test_mc_sup_distance_decreases_like_schedule():
    g = TimeGrid(1.0, 64)
    sched = CouplingSchedule()
    means = []
    for n in (1, 2, 4, 8, 16):
        acc = []
        for r in range(300):
            W = sample_wiener(g, 1, seed=21, replica=r)
            B = sample_wiener(g, 1, seed=21, replica=r, stream=1)
            acc.append(sup_distance(sched.coupled(W, B, n), W) ** 2)
        means.append(np.mean(acc))
    assert all(means[i + 1] <= means[i] for i in range(len(means) - 1))


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        CouplingSchedule(kind="bogus")
    sched = CouplingSchedule()
    assert sched.coefficient(4) == 0.25
    assert CouplingSchedule(kind="identity").coefficient(3) == 0.0
    with pytest.raises(ConfigurationError):
        sched.coefficient(0)


def test_chunked_draws_match_replica_draws():
    g = TimeGrid(1.0, 16)
    omega0, normals = initial_chunk(seed=13, lo=3, hi=6)
    dW = increment_chunk(g, 2, seed=13, lo=3, hi=6)
    for i, r in enumerate(range(3, 6)):
        draw = ReplicaDraw.sample(g, 2, seed=13, replica=r)
        assert draw.omega0 == omega0[i]
        assert np.array_equal(draw.normals, normals[i])
        assert np.array_equal(draw.W.increments, dW[i])


def test_aggregate_increments_restricts_the_path():
    g_fine = TimeGrid(1.0, 64)
    W = sample_wiener(g_fine, 1, seed=17, replica=0)
    coarse = aggregate_increments(W.increments, 4)
    assert np.allclose(np.cumsum(coarse, axis=0)[:, 0], W.values[4::4, 0])


def test_replica_batch_on_a_coarser_grid_reads_block_sums():
    fine = ReplicaBatch(TimeGrid(1.0, 48), 2, seed=19, lo=2, hi=5)
    coarse = fine.on(TimeGrid(1.0, 12))
    assert fine.on(fine.grid) is fine
    assert np.array_equal(coarse.W.increments, aggregate_increments(fine.W.increments, 4))
    assert np.array_equal(coarse.B.increments, aggregate_increments(fine.B.increments, 4))
    assert np.array_equal(coarse.omega0, fine.omega0)
    assert np.allclose(coarse.W.values[:, -1], fine.W.values[:, -1], rtol=0, atol=1e-12)
    with pytest.raises(GridMismatchError):
        fine.on(TimeGrid(1.0, 36))
    with pytest.raises(GridMismatchError):
        fine.on(TimeGrid(2.0, 12))
