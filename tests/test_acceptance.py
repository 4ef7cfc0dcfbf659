"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
The heavy entries take minutes; the whole module is the exit gate, not a
quick development loop.
"""

import time

import numpy as np
import pytest

from stochlab import claw as claw_mod
from stochlab import convergence_lab as lab
from stochlab import transport as transport_mod
from stochlab.cli import run as cli_run
from stochlab.ito import discrete_ito_identity_residual
from stochlab.mollify import (MollifierKernel, adjoint_mollify,
                              adjoint_mollify_derivative, mollify,
                              mollify_derivative, time_inner)
from stochlab.processes import Ensemble, TestFunction
from stochlab.translation import fit_translation_rate
from stochlab.transport import TorusGrid
from stochlab.wiener import CouplingSchedule, TimeGrid, sample_wiener

SEED = 20240811


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_counterexample_sine():
    t0 = time.monotonic()
    grid = TimeGrid(1.0, 512)
    ens = Ensemble(SEED, 100_000)
    sched = CouplingSchedule()
    moments = {}
    for n in (4, 16, 64):
        rep = lab.counterexample_sine(n, ens, grid, sched)
        moments[n] = rep.second_moment
    elapsed = time.monotonic() - t0
    ok = all(abs(m - 0.25) <= 0.03 * 0.25 for m in moments.values()) and elapsed <= 60.0
    report("criterion 1 (sine counterexample = 1/4)", ok,
           f"second moments {moments}, runtime {elapsed:.1f}s")


def test_criterion_02_counterexample_spike():
    grid = TimeGrid(1.0, 512)
    ens = Ensemble(SEED, 100_000)
    sched = CouplingSchedule()
    ok = True
    details = []
    for n in (4, 16):
        rep = lab.counterexample_spike(n, ens, grid, sched)
        ok = ok and abs(rep.variance - 1.0) <= 0.03
        ok = ok and abs(rep.mean) <= 3.0 * rep.mean_stderr
        details.append(f"n={n}: var={rep.variance:.4f}, mean={rep.mean:+.4f}"
                       f"+-{rep.mean_stderr:.4f}")
    report("criterion 2 (spike counterexample ~ N(0,1))", ok, "; ".join(details))


def test_criterion_03_isometry_suite():
    from stochlab.cli import _run_isometry, apply_defaults
    rows = _run_isometry(apply_defaults("isometry", {"seed": SEED, "samples": 100_000}))
    zs = {r.statistic: r.value for r in rows if r.statistic.endswith("_z")}
    ident = next(r.value for r in rows if r.statistic == "ito_identity_max_rel")
    ok = all(abs(z) <= 3.0 for z in zs.values()) and ident <= 1e-12
    report("criterion 3 (Ito isometry suite)", ok,
           f"z-scores {({k: round(v, 2) for k, v in zs.items()})}, "
           f"identity residual {ident:.2e}")


def test_criterion_04_mollifier_calculus():
    grid = TimeGrid(1.0, 1024)
    K = MollifierKernel(0.07)
    rng = np.random.default_rng(SEED)
    worst_adj = worst_dadj = 0.0
    for _ in range(100):
        f = rng.standard_normal(grid.steps + 1)
        g = rng.standard_normal(grid.steps + 1)
        worst_adj = max(worst_adj, abs(
            time_inner(grid, mollify(K, grid, f), g)
            - time_inner(grid, f, adjoint_mollify(K, grid, g))))
        worst_dadj = max(worst_dadj, abs(
            time_inner(grid, mollify_derivative(K, grid, f), g)
            + time_inner(grid, f, adjoint_mollify_derivative(K, grid, g))))
    mass = MollifierKernel(0.06).mass_up_to(0.08)
    corpus = [np.sin(2 * np.pi * grid.nodes),
              np.cos(4 * np.pi * grid.nodes) + 0.3 * grid.nodes]
    contraction = approx = True
    for f in corpus:
        errs = []
        for rho in (0.2, 0.1, 0.05):
            out = mollify(MollifierKernel(rho), grid, f)
            errs.append(np.sqrt(time_inner(grid, f - out, f - out)))
            nf = np.sqrt(time_inner(grid, f, f))
            no = np.sqrt(time_inner(grid, out, out))
            contraction = contraction and no <= nf * (1 + 1e-6)
        approx = approx and errs[0] > errs[1] > errs[2]
    ok = (worst_adj <= 1e-8 and worst_dadj <= 1e-8
          and abs(mass - 1.0) <= 1e-6 and contraction and approx)
    report("criterion 4 (mollifier calculus)", ok,
           f"adjoint {worst_adj:.2e}, derivative-adjoint {worst_dadj:.2e}, "
           f"mass defect {abs(mass - 1.0):.2e}, contraction {contraction}, "
           f"approximation monotone {approx}")


def test_criterion_05_translation_rates():
    t0 = time.monotonic()
    tgrid = TimeGrid(1.0, 2048)
    grid = TorusGrid(128)
    lags = [2.0 ** (-e) for e in range(8, 2, -1)]
    from stochlab.cli import (_claw_translation_problem,
                              _transport_translation_problem)
    n_ladder = [32, 64, 128]
    trans = transport_mod.transport_translation_ensembles(
        _transport_translation_problem, n_ladder, grid, tgrid, 1000, SEED)
    phi = claw_mod.bump_test_function(TestFunction.one(128), -1.1, 2.1)
    kin = claw_mod.claw_translation_ensembles(
        _claw_translation_problem, n_ladder, grid, tgrid, 1000, SEED + 1, phi)
    ok = True
    details = []
    for name, ens in (("transport", trans), ("claw", kin)):
        fit = fit_translation_rate(ens, tgrid, lags)
        ok = ok and fit.worst_slope() >= 0.4 and bool(np.all(fit.uniform_ratio <= 1.5))
        details.append(f"{name}: worst slope {fit.worst_slope():.3f}, "
                       f"max uniformity ratio {fit.uniform_ratio.max():.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 300.0
    report("criterion 5 (translation rates, uniform in n)", ok,
           "; ".join(details) + f", runtime {elapsed:.0f}s")


def test_criterion_06_weak_gap_and_decomposition():
    grid = TimeGrid(1.0, 256)
    sched = CouplingSchedule()
    ens = Ensemble(SEED, 10_000)
    fam = lab.weak_omega_family(lambda t: np.ones_like(t),
                                lambda t: np.sin(2 * np.pi * t))

    def limit(draw):
        from stochlab.processes import AdaptedProcess
        return AdaptedProcess(draw.W.grid, np.ones(draw.W.grid.steps), "scalar")

    rep = lab.convergence_scan(grid, 1, fam, limit, sched, [1, 16], ens, "weak")
    g1, g16 = rep.entries[0].statistic, rep.entries[1].statistic
    sweep = lab.rho_sweep(grid, 1, fam, limit, sched, 4, [0.2, 0.1, 0.05],
                          Ensemble(SEED, 2000))
    i1 = [r.i1_second_moment for r in sweep]
    i3 = [r.i3_second_moment for r in sweep]
    mono = i1[0] > i1[1] > i1[2] and i3[0] > i3[1] > i3[2]
    ok = g16 <= g1 / 3.0 and mono
    report("criterion 6 (weak-mode gap ladder + smoothing split)", ok,
           f"gap(1)={g1:.4f}, gap(16)={g16:.4f}, EI1^2={i1}, EI3^2={i3}")


def test_criterion_07_necessity_negative_control():
    grid = TimeGrid(1.0, 256)
    ens = Ensemble(SEED, 10_000)
    entries, floor, ok = lab.necessity_control(grid, CouplingSchedule(),
                                               [1, 4, 16], ens)
    detail = ", ".join(f"n={e.n}: {e.statistic:.4f}+-{e.stderr:.4f}" for e in entries)
    report("criterion 7 (translation hypothesis is necessary)", ok,
           f"floor {floor:.4f}; {detail}")


def test_criterion_08_spatial_integrability_trade():
    from stochlab.cli import _run_l1mode, apply_defaults
    rows = _run_l1mode(apply_defaults("l1mode", {"seed": SEED, "samples": 10_000}))
    stats = {r.n: r.value for r in rows if r.statistic == "strong_statistic"}
    ratio = next(r.value for r in rows if r.statistic == "strong_ratio")
    verdict = next(r.verdict for r in rows if r.statistic == "strong_ratio")
    ok = verdict == "pass" and stats[32] <= stats[2] / 4.0
    report("criterion 8 (spatial oscillation, strong mode)", ok,
           f"statistics {stats}, ratio {ratio:.4f}")


def test_criterion_09_transport_stability():
    t0 = time.monotonic()
    from stochlab.cli import _run_transport, apply_defaults
    rows = _run_transport(apply_defaults("transport", {"seed": SEED, "samples": 200}))
    elapsed = time.monotonic() - t0
    verdicts = {r.statistic: r.verdict for r in rows if r.verdict}
    dists = {r.n: r.value for r in rows if r.statistic == "lp_distance"}
    drift = next(r.value for r in rows if r.statistic == "mass_drift")
    ok = all(v == "pass" for v in verdicts.values()) and elapsed <= 600.0
    report("criterion 9 (transport stability ladder)", ok,
           f"distances {({k: round(v, 4) for k, v in dists.items()})}, "
           f"mass drift {drift:.2e}, runtime {elapsed:.0f}s, verdicts {verdicts}")


def test_criterion_10_kinetic_suite():
    from stochlab.cli import _run_claw
    rows = _run_claw({"seed": SEED, "samples": 256, "cells": 64, "horizon": 0.2,
                      "n_ladder": [2, 8, 16], "refine": 4,
                      "det_cells": [64, 128], "shock_horizon": 0.3})
    verdicts = {r.statistic: r.verdict for r in rows if r.verdict}
    gaps = {r.n: r.value for r in rows if r.statistic == "ito_weak_gap"}
    speed = next(r.value for r in rows if r.statistic == "shock_speed")
    ratio = next(r.value for r in rows if r.statistic == "residual_refinement_ratio")
    ok = all(v == "pass" for v in verdicts.values())
    report("criterion 10 (kinetic suite)", ok,
           f"shock speed {speed:.4f}, residual ratio {ratio:.2f}, "
           f"ito gaps {({k: round(v, 5) for k, v in gaps.items()})}, verdicts {verdicts}")


DETERMINISM_CONFIG = """\
[isometry]
seed = 11
samples = 3000
time_steps = 128
identity_paths = 50

[mollifier]
seed = 11
samples = 10
time_steps = 512

[counterexample]
seed = 11
samples = 3000
time_steps = 256
sine_n_ladder = 4, 16
spike_n_ladder = 4
tolerance = 0.08

[theorem21]
seed = 11
samples = 1500
time_steps = 128
decomposition_samples = 400

[l1mode]
seed = 11
samples = 1000
time_steps = 128
cells = 32

[corollary42]
seed = 11
samples = 1500
time_steps = 128

[translate]
seed = 11
samples = 64
cells = 32
time_steps = 1024
n_ladder = 32, 64

[transport]
seed = 11
samples = 16
cells = 32
horizon = 0.1
snapshots = 8

[claw]
seed = 11
samples = 16
cells = 32
horizon = 0.1
refine = 2
det_cells = 32, 64
shock_horizon = 0.2
"""


def test_criterion_11_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "acceptance.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    outputs = []
    for name, workers in (("run1", 1), ("run2", 2), ("run3", 1)):
        out = tmp_path / name
        status = cli_run(str(cfg), "all", str(out), workers=workers)
        assert status == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) == 10
    report("criterion 11 (byte-identical CSVs at any worker count)", ok,
           f"{len(outputs[0])} CSV files compared across worker counts 1/2/1")
