"""Experiment orchestration: config parsing, dispatch, seeds, CSV reports.

Config files are INI-style: bracketed section headers name experiments, lines
are `key = value`, numeric lists are comma-separated. Every run writes one CSV
per experiment with the fixed column set

    experiment, n, rho, h, statistic, value, stderr, samples, seed, verdict

and exits 0 iff every verdict-bearing row passed, 1 when a verdict failed or
read invalid, 2 on a configuration error and 3 when a solver failed (a CFL
violation, an escape from the kinetic window or a blow-up): that experiment's
CSV then holds one `error` row naming the failure. Runs are single-threaded.
Reruns with identical config bytes produce identical CSV bytes: replica
streams are indexed, reductions are pairwise over replica-ordered arrays, and
floats are formatted with a fixed %.12g.

Every Monte Carlo runner of the lab (isometry, counterexample, theorem21,
l1mode, corollary42) reads its replicas off one convergence_lab.run_pass and
draws none of its own; each runner builds its rows with one `row` that binds
the experiment name and the seed. The library measures; the runners judge,
and every threshold of a ladder verdict is written once, below.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import claw as claw_mod
from . import convergence_lab as lab
from . import transport as transport_mod
from .mollify import (MollifierKernel, adjoint_mollify,
                      adjoint_mollify_derivative, mollify, mollify_derivative,
                      time_inner)
from ._util import log_log_slope, mean_and_stderr, trapezoid_weights
from .errors import CFLError, ConfigurationError, RangeEscapeError, SolverBlowupError
from .ito import discrete_ito_identity_residual
from .processes import AdaptedProcess, Ensemble, TestFunction
from .translation import fit_translation_rate
from .wiener import CouplingSchedule, TimeGrid, WienerPath, sample_wiener

CSV_HEADER = ["experiment", "n", "rho", "h", "statistic", "value", "stderr",
              "samples", "seed", "verdict"]

EXPERIMENTS = ["isometry", "mollifier", "translate", "counterexample",
               "theorem21", "l1mode", "corollary42", "transport", "claw"]

# Thresholds of the verdicts: declared engineering choices, not theorems.
LADDER_FALL = 3.0        # a falling ladder ends at most a third of where it starts
SLOPE_MAX = -0.3         # ... or has a fitted log-log slope at most this
REFERENCE_SHARE = 10.0   # reference errors stay within a tenth of the smallest ladder value
MASS_GROWTH = 3.0        # the defect mass stays within 3x its ladder minimum
ROUNDOFF = 1e-12         # what an exact identity or a steady monitor may miss by
DISTANCE_SLACK = 1e-9    # relative roundoff a falling distance may rise by


@dataclass
class Row:
    experiment: str
    statistic: str
    value: float | None
    n: int | None = None
    rho: float | None = None
    h: float | None = None
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None
    verdict: str = ""  # "pass" | "fail" | "invalid" | "error" | "" (informational)

    def as_record(self) -> list[str]:
        def num(x):
            if x is None:
                return ""
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            return "%.12g" % float(x)
        return [self.experiment, num(self.n), num(self.rho), num(self.h),
                self.statistic, num(self.value), num(self.stderr),
                num(self.samples), num(self.seed), self.verdict]


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------

_REQUIRED = object()


def _int_from(lowest: int, message: str):
    def parse(v):
        x = int(v)
        if x < lowest:
            raise ValueError(message)
        return x
    return parse


_seed = _int_from(0, "must be non-negative")
_pos_int = _int_from(1, "must be positive")
_samples = _int_from(2, "must be at least 2")  # a standard error needs two


def _float(v):
    return float(v)


def _pos_float(v):
    x = float(v)
    if x <= 0:
        raise ValueError("must be positive")
    return x


def _fraction(v):
    # allow "1/256" style lag entries alongside plain floats
    if "/" in str(v):
        a, b = str(v).split("/")
        return float(a) / float(b)
    return float(v)


def _list_of(item, distinct: bool = False):
    def parse(v):
        items = [item(s.strip()) for s in str(v).split(",") if s.strip()]
        if not items:
            raise ValueError("must be a non-empty list")
        if distinct and len(set(items)) < len(items):
            raise ValueError("must not repeat an entry")
        return items
    return parse


_pos_int_list = _list_of(_pos_int)
_float_list = _list_of(_fraction)

def _ladder(v):
    """An n or cell ladder whose rows compare its first and last entries."""
    items = _pos_int_list(v)
    if len(items) < 2 or any(b <= a for a, b in zip(items, items[1:])):
        raise ValueError("must be strictly increasing with at least 2 entries")
    return items


def _lag_ladder(v):
    items = _float_list(v)
    if len(items) < 2:
        raise ValueError("must have at least 2 entries")
    return items


def _choice(*options):
    def parse(v):
        v = str(v).strip()
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return parse


SCHEMAS: dict[str, dict] = {
    "isometry": {
        "seed": (_seed, _REQUIRED),
        "samples": (_samples, _REQUIRED),
        "time_steps": (_pos_int, 512),
        "identity_paths": (_pos_int, 1000),
    },
    "mollifier": {
        "seed": (_seed, _REQUIRED),
        "samples": (_pos_int, _REQUIRED),       # number of random smooth pairs
        "time_steps": (_pos_int, 1024),
        "rho": (_pos_float, 0.07),
        "rho_ladder": (_float_list, [0.2, 0.1, 0.05]),
        "mass_delta": (_pos_float, 0.08),
        "mass_rho": (_pos_float, 0.06),
    },
    "translate": {
        "seed": (_seed, _REQUIRED),
        "samples": (_pos_int, _REQUIRED),       # replicas per family member
        "cells": (_pos_int, 128),
        "time_steps": (_pos_int, 2048),
        "n_ladder": (_pos_int_list, [32, 64, 128]),
        "h_ladder": (_lag_ladder, [2.0 ** (-e) for e in range(8, 2, -1)]),
        "slope_min": (_float, 0.4),
        "uniformity_max": (_float, 1.5),
    },
    "counterexample": {
        "seed": (_seed, _REQUIRED),
        "samples": (_samples, _REQUIRED),
        "which": (_choice("sine", "spike", "both"), "both"),
        "time_steps": (_pos_int, 512),
        "sine_n_ladder": (_pos_int_list, [4, 16, 64]),
        "spike_n_ladder": (_pos_int_list, [4, 16]),
        "tolerance": (_pos_float, 0.03),
    },
    "theorem21": {
        "seed": (_seed, _REQUIRED),
        "samples": (_samples, _REQUIRED),
        "time_steps": (_pos_int, 256),
        "n_ladder": (_ladder, [1, 4, 16]),
        "rho_ladder": (_float_list, [0.2, 0.1, 0.05]),
        "rho_n": (_pos_int, 4),
        "decomposition_samples": (_pos_int, 2000),
    },
    "l1mode": {
        "seed": (_seed, _REQUIRED),
        "samples": (_samples, _REQUIRED),
        "time_steps": (_pos_int, 256),
        "cells": (_pos_int, 64),
        "n_ladder": (_ladder, [2, 8, 32]),
        "ratio_max": (_pos_float, 0.25),
        "growth_factor": (_pos_float, 2.0),
    },
    "corollary42": {
        "seed": (_seed, _REQUIRED),
        "samples": (_samples, _REQUIRED),
        "time_steps": (_pos_int, 256),
        "n_ladder": (_ladder, [2, 8, 32]),
        "rho": (_pos_float, 0.1),
    },
    "transport": {
        "seed": (_seed, _REQUIRED),
        "samples": (_pos_int, _REQUIRED),       # replicas
        "cells": (_pos_int, 128),
        "horizon": (_pos_float, 0.25),
        "n_ladder": (_ladder, [2, 8, 32]),
        "snapshots": (_pos_int, 64),
        "refine": (_pos_int, 4),
        "velocity": (_choice("smooth", "constant"), "smooth"),
        "velocity_scale": (_float, 0.5),
        "noise_amplitude": (_float, 0.15),
    },
    "claw": {
        "seed": (_seed, _REQUIRED),
        "samples": (_pos_int, _REQUIRED),       # replicas for the ladder
        "cells": (_pos_int, 64),
        "horizon": (_pos_float, 0.2),
        "n_ladder": (_ladder, [2, 8, 16]),
        "refine": (_pos_int, 4),
        "det_cells": (_ladder, [64, 128]),
        "shock_horizon": (_pos_float, 0.3),
        "flux": (_choice("burgers", "cubic", "linear"), "burgers"),
        "sigma": (_choice("bounded_smooth", "constant"), "bounded_smooth"),
        "sigma_amplitude": (_float, 0.12),
    },
    "run": {
        "experiments": (_list_of(str, distinct=True), None),
    },
}


def apply_defaults(section: str, params: dict) -> dict:
    """Fill a parameter dict with the section's schema defaults."""
    schema = SCHEMAS[section]
    out = dict(params)
    for key, (_, default) in schema.items():
        if key not in out:
            if default is _REQUIRED:
                have_defaults = {k: d for k, (_, d) in schema.items()
                                 if d is not _REQUIRED and d is not None}
                raise ConfigurationError(
                    f"missing required key '{key}' in [{section}] "
                    f"(keys with defaults: {have_defaults})")
            out[key] = default
    return out


def parse_config(text: str) -> dict[str, dict]:
    """Validate the INI text against the experiment schemas.

    Unknown sections or keys are errors listing the accepted set; duplicate
    keys within a section are rejected by the strict parser; missing required
    keys are errors that also name the available defaults.
    """
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ConfigurationError(f"duplicate key: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config not parseable: {exc}") from exc
    plan: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SCHEMAS:
            raise ConfigurationError(
                f"unknown section [{section}]; accepted: {sorted(SCHEMAS)}")
        schema = SCHEMAS[section]
        params = {}
        for key, value in parser.items(section):
            if key not in schema:
                raise ConfigurationError(
                    f"unknown key '{key}' in [{section}]; accepted: {sorted(schema)}")
            fn, _ = schema[key]
            try:
                params[key] = fn(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError(f"bad value for '{key}' in [{section}]: {exc}") from exc
        plan[section] = apply_defaults(section, params)
    return plan


# ----------------------------------------------------------------------
# experiment implementations
# ----------------------------------------------------------------------

def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _falls(values: list[float]) -> bool:
    return values[-1] <= values[0] / LADDER_FALL


def _rows_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v. BLAS gemv sums rows in blocks of four and a leftover row another
    way, so zero rows pad a to whole blocks: a row's value is chunk-independent."""
    pad = -len(a) % 4
    return (np.concatenate([a, np.zeros((pad, a.shape[1]))]) @ v)[:len(a)] if pad else a @ v


def _run_isometry(p: dict) -> list[Row]:
    p = apply_defaults("isometry", p)
    seed, samples = p["seed"], p["samples"]
    row = partial(Row, "isometry", seed=seed)
    grid = TimeGrid(1.0, p["time_steps"])
    dt, t_left = grid.dt, grid.left_nodes
    n_osc = 8
    sin_t = np.sin(2 * np.pi * n_osc * t_left)

    def sample(batch):
        """(I^2, int V^2 dt) per replica for each member: the two sides of the isometry."""
        dW, w_left = batch.W.increments[:, :, 0], batch.W.values[:, :-1, 0]
        f = np.sin(2 * np.pi * n_osc * batch.omega0)[:, None] * sin_t[None, :]
        members = {
            "ramp": (_rows_dot(dW, t_left), np.full(len(batch), np.sum(t_left ** 2) * dt)),
            "unit": (dW.sum(axis=1), np.ones(len(batch))),
            "wiener": (np.sum(w_left * dW, axis=1), np.sum(w_left ** 2, axis=1) * dt),
            "osc_sine": (np.sum(f * dW, axis=1), np.sum(f ** 2, axis=1) * dt),
        }
        return {name: np.column_stack([i ** 2, q]) for name, (i, q) in members.items()}

    def finish(s):
        rows = []
        for name, sides in s.items():
            sq, quad = sides[:, 0], sides[:, 1]
            lhs, lhs_se = mean_and_stderr(sq)
            rhs, _ = mean_and_stderr(quad)
            dmean, dse = mean_and_stderr(sq - quad)
            z = dmean / dse if dse > 0 else 0.0
            rows += [row(f"{name}_lhs", lhs, stderr=lhs_se, samples=samples),
                     row(f"{name}_rhs", rhs, samples=samples),
                     row(f"{name}_z", z, samples=samples, verdict=_verdict(abs(z) <= 3.0))]
        return rows

    def identity(batch):
        return {"residual": np.array([discrete_ito_identity_residual(WienerPath(grid, 1, w))
                                      for w in batch.W.values])}

    paths = Ensemble(seed, p["identity_paths"])
    rows, worst = lab.run_pass(grid, 1, lab.Statistic(Ensemble(seed, samples), sample, finish),
                               lab.Statistic(paths, identity, lambda s: s["residual"].max()))
    return rows + [row("ito_identity_max_rel", worst, samples=paths.replicas,
                       verdict=_verdict(worst <= ROUNDOFF))]


def _run_mollifier(p: dict) -> list[Row]:
    p = apply_defaults("mollifier", p)
    seed, pairs, nt = p["seed"], p["samples"], p["time_steps"]
    row = partial(Row, "mollifier", seed=seed)
    grid = TimeGrid(1.0, nt)
    K = MollifierKernel(p["rho"])
    rng = np.random.default_rng(seed)
    worst_adj = 0.0
    worst_dadj = 0.0
    for _ in range(pairs):
        f = rng.standard_normal(nt + 1)
        g = rng.standard_normal(nt + 1)
        lhs = time_inner(grid, mollify(K, grid, f), g)
        rhs = time_inner(grid, f, adjoint_mollify(K, grid, g))
        worst_adj = max(worst_adj, abs(lhs - rhs))
        dl = time_inner(grid, mollify_derivative(K, grid, f), g)
        dr = time_inner(grid, f, adjoint_mollify_derivative(K, grid, g))
        worst_dadj = max(worst_dadj, abs(dl + dr))
    mass = MollifierKernel(p["mass_rho"]).mass_up_to(p["mass_delta"])
    rows = [
        row("adjoint_residual_max", worst_adj, rho=p["rho"], samples=pairs,
            verdict=_verdict(worst_adj <= 1e-8)),
        row("derivative_adjoint_residual_max", worst_dadj, rho=p["rho"], samples=pairs,
            verdict=_verdict(worst_dadj <= 1e-8)),
        row("mass_below_delta", mass, rho=p["mass_rho"], h=p["mass_delta"],
            verdict=_verdict(abs(mass - 1.0) <= 1e-6)),
    ]
    corpus = [np.sin(2 * np.pi * grid.nodes),
              np.cos(4 * np.pi * grid.nodes) + 0.3 * grid.nodes,
              np.exp(grid.nodes) * np.sin(2 * np.pi * grid.nodes)]
    contraction_ok = True
    for f in corpus:
        out = mollify(K, grid, f)
        for r in (1.0, 2.0, 3.0):
            w = trapezoid_weights(nt + 1, grid.dt)
            nf = np.sum(w * np.abs(f) ** r) ** (1 / r)
            no = np.sum(w * np.abs(out) ** r) ** (1 / r)
            contraction_ok = contraction_ok and (no <= nf * (1 + 1e-6))
    rows.append(row("contraction_ok", float(contraction_ok), rho=p["rho"],
                    verdict=_verdict(contraction_ok)))
    monotone_ok = True
    for f in corpus:
        errs = []
        for rho in p["rho_ladder"]:
            out = mollify(MollifierKernel(rho), grid, f)
            errs.append(np.sqrt(time_inner(grid, f - out, f - out)))
        monotone_ok = monotone_ok and all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    rows.append(row("approximation_monotone", float(monotone_ok), verdict=_verdict(monotone_ok)))
    return rows


def _transport_translation_problem(n: int):
    return transport_mod.TransportProblem(
        velocity=lambda x: np.zeros_like(x),
        divergence=lambda x: np.zeros_like(x),
        source=lambda x: np.zeros_like(x),
        noise=transport_mod.bounded_smooth_noise(0.3),
        epsilon=1.0 / n,
        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x))


def _claw_translation_problem(n: int):
    return claw_mod.KineticProblem(
        flux=claw_mod.quadratic_flux(),
        sigma=claw_mod.bounded_smooth_sigma(0.25),
        epsilon=1.0 / n,
        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
        xi_min=-1.4, xi_max=2.4)


def _run_translate(p: dict) -> list[Row]:
    p = apply_defaults("translate", p)
    seed, replicas = p["seed"], p["samples"]
    row = partial(Row, "translate", seed=seed, samples=replicas)
    tgrid = TimeGrid(1.0, p["time_steps"])
    grid = transport_mod.TorusGrid(p["cells"])
    lags = sorted(h * tgrid.horizon for h in p["h_ladder"])
    rows = []
    systems = {
        "transport": transport_mod.transport_translation_ensembles(
            _transport_translation_problem, p["n_ladder"], grid, tgrid,
            replicas, seed),
        "claw": claw_mod.claw_translation_ensembles(
            _claw_translation_problem, p["n_ladder"], grid, tgrid, replicas,
            seed + 1, phi=claw_mod.bump_test_function(
                TestFunction.one(p["cells"]), -1.1, 2.1)),
    }
    for name, ensembles in systems.items():
        fit = fit_translation_rate(ensembles, tgrid, lags)
        for n in p["n_ladder"]:
            slope = fit.slopes[n]
            rows.append(row(f"{name}_slope", slope, n=n,
                            verdict=_verdict(slope >= p["slope_min"])))
            for h, m in zip(fit.lags, fit.moduli[n]):
                rows.append(row(f"{name}_modulus", m, n=n, h=h))
        for h, ratio in zip(fit.lags, fit.uniform_ratio):
            rows.append(row(f"{name}_uniformity_ratio", ratio, h=h,
                            verdict=_verdict(ratio <= p["uniformity_max"])))
    return rows


def _run_counterexample(p: dict) -> list[Row]:
    p = apply_defaults("counterexample", p)
    seed, samples, tol = p["seed"], p["samples"], p["tolerance"]
    row = partial(Row, "counterexample", seed=seed)
    grid = TimeGrid(1.0, p["time_steps"])
    ens, sched = Ensemble(seed, samples), CouplingSchedule()
    sines = p["sine_n_ladder"] if p["which"] in ("sine", "both") else []
    spikes = p["spike_n_ladder"] if p["which"] in ("spike", "both") else []
    reports = lab.run_pass(grid, 1, *(lab.sine_statistic(n, ens, grid, sched) for n in sines),
                           *(lab.spike_statistic(n, ens, grid, sched) for n in spikes))
    rows = []
    for rep in reports[:len(sines)]:
        rows.append(row("second_moment", rep.second_moment, n=rep.n, stderr=rep.stderr,
                        samples=samples,
                        verdict=_verdict(abs(rep.second_moment - 0.25) <= tol * 0.25)))
        for name, (val, se) in rep.pairings.items():
            rows.append(row(f"pairing_{name}", val, n=rep.n, stderr=se, samples=samples,
                            verdict=_verdict(abs(val) <= 3 * se)))
    for rep in reports[len(sines):]:
        n = rep.n
        rows += [
            row("spike_variance", rep.variance, n=n, stderr=rep.variance_stderr,
                samples=samples, verdict=_verdict(abs(rep.variance - 1.0) <= tol)),
            row("spike_mean", rep.mean, n=n, stderr=rep.mean_stderr, samples=samples,
                verdict=_verdict(abs(rep.mean) <= 3 * rep.mean_stderr)),
            row("spike_tail_fraction", rep.tail_fraction, n=n, samples=samples),
            row("spike_l2_norm_sq", rep.l2_norm_sq, n=n,
                verdict=_verdict(abs(rep.l2_norm_sq - 1.0) <= ROUNDOFF)),
            row("spike_linear_pairing", rep.linear_pairing, n=n,
                verdict=_verdict(abs(rep.linear_pairing - 1.0 / (2.0 * n ** 1.5)) <= 1e-10)),
        ]
    return rows


def _weak_omega():
    return lab.weak_omega_family(lambda t: np.ones_like(t),
                                 lambda t: np.sin(2 * np.pi * t))


def _unit_limit(draw):
    return AdaptedProcess(draw.W.grid, np.ones(draw.W.grid.steps), "scalar")


def _run_theorem21(p: dict) -> list[Row]:
    p = apply_defaults("theorem21", p)
    seed, samples = p["seed"], p["samples"]
    row = partial(Row, "theorem21", seed=seed)
    grid = TimeGrid(1.0, p["time_steps"])
    sched = CouplingSchedule()
    ens = Ensemble(seed, samples)
    dens = Ensemble(seed, min(samples, p["decomposition_samples"]))
    report, reports, (entries, floor, ok) = lab.run_pass(
        grid, 1,
        lab.scan_statistic(_weak_omega(), _unit_limit, sched, p["n_ladder"], ens, "weak"),
        lab.split_statistic(_weak_omega(), _unit_limit, sched,
                            [(p["rho_n"], rho) for rho in p["rho_ladder"]], dens),
        lab.control_statistic(grid, sched, p["n_ladder"], ens))
    rows = []
    gaps = [e.statistic for e in report.entries]
    for e in report.entries:
        rows.append(row("weak_gap", e.statistic, n=e.n, stderr=e.stderr, samples=samples))
    rows.append(row("weak_gap_ratio", gaps[-1] / max(gaps[0], 1e-300), samples=samples,
                    verdict=_verdict(_falls(gaps))))
    i1 = [r.i1_second_moment for r in reports]
    i3 = [r.i3_second_moment for r in reports]
    for r in reports:
        rows.append(row("i1_second_moment", r.i1_second_moment, n=r.n, rho=r.rho,
                        stderr=r.i1_stderr, samples=dens.replicas))
        rows.append(row("i3_second_moment", r.i3_second_moment, n=r.n, rho=r.rho,
                        stderr=r.i3_stderr, samples=dens.replicas))
    mono = all(i1[i + 1] < i1[i] for i in range(len(i1) - 1)) and \
        all(i3[i + 1] < i3[i] for i in range(len(i3) - 1))
    rows.append(row("decomposition_monotone", float(mono), n=p["rho_n"],
                    samples=dens.replicas, verdict=_verdict(mono)))
    for e in entries:
        rows.append(row("negative_control_strong", e.statistic, n=e.n, stderr=e.stderr,
                        samples=samples))
    rows.append(row("negative_control_floor", floor, samples=samples, verdict=_verdict(ok)))
    return rows


def _run_l1mode(p: dict) -> list[Row]:
    p = apply_defaults("l1mode", p)
    seed, samples = p["seed"], p["samples"]
    row = partial(Row, "l1mode", seed=seed)
    grid = TimeGrid(1.0, p["time_steps"])
    cells = p["cells"]
    sched = CouplingSchedule()
    beta = TestFunction.from_callable(cells, lambda x: 1.0 + np.sin(4 * np.pi * x))
    v = lambda t, x: (1.0 + 0.5 * np.cos(2 * np.pi * x)) * (1.0 + 0.3 * t)
    fam = lab.spatial_oscillation_family(cells, v)

    def limit(draw):
        t = draw.W.grid.left_nodes
        x = np.arange(cells) / cells
        vals = v(t[:, None], x[None, :])
        return AdaptedProcess(draw.W.grid, vals[:, :, None], "field")

    out = lab.l1_torus_mode(grid, 1, beta, fam, limit, sched, p["n_ladder"],
                            Ensemble(seed, samples), mode="strong")
    # a norm past growth_factor x its minimum: the limit statement does not apply
    norms = out.hypothesis_norms
    invalid = max(norms.values()) > p["growth_factor"] * min(norms.values())
    rows = []
    for e in out.report.entries:
        rows.append(row("strong_statistic", e.statistic, n=e.n, stderr=e.stderr,
                        samples=samples, verdict="invalid" if invalid else ""))
    for n, norm in norms.items():
        rows.append(row("lp_l1_hypothesis_norm", norm, n=n))
    vals = [e.statistic for e in out.report.entries]
    ratio = vals[-1] / max(vals[0], 1e-300)
    verdict = "invalid" if invalid else _verdict(ratio <= p["ratio_max"])
    rows.append(row("strong_ratio", ratio, samples=samples, verdict=verdict))
    return rows


def _run_corollary42(p: dict) -> list[Row]:
    p = apply_defaults("corollary42", p)
    seed, samples = p["seed"], p["samples"]
    row = partial(Row, "corollary42", seed=seed)
    grid = TimeGrid(1.0, p["time_steps"])
    sched = CouplingSchedule()
    ens = Ensemble(seed, samples)
    fam = lab.temporal_oscillation_family(0.5)
    # the smoothed middle term and the pairing distance at the ladder's ends,
    # on the first 2000 replicas of the scan's pass
    small = Ensemble(seed, min(samples, 2000))
    ends = (p["n_ladder"][0], p["n_ladder"][-1])
    report, splits, distances = lab.run_pass(
        grid, 1,
        lab.scan_statistic(fam, lab.zero_limit, sched, p["n_ladder"], ens, "strong"),
        lab.split_statistic(fam, lab.zero_limit, sched, [(n, p["rho"]) for n in ends], small),
        lab.distance_statistic(fam, lab.zero_limit, ends, small))
    rows = []
    for e in report.entries:
        rows.append(row("strong_statistic", e.statistic, n=e.n, stderr=e.stderr,
                        samples=samples))
    stats = [max(e.statistic, 1e-300) for e in report.entries]
    slope = log_log_slope([e.n for e in report.entries], stats)
    rows.append(row("strong_slope", slope, samples=samples,
                    verdict=_verdict(slope <= SLOPE_MAX or _falls(stats))))
    i2 = [rep.i2_gap for rep in splits]
    for rep in splits:
        rows.append(row("i2_gap_fixed_rho", rep.i2_gap, n=rep.n, rho=p["rho"],
                        stderr=rep.i2_gap_stderr, samples=small.replicas))
    rows.append(row("i2_gap_falls", float(i2[-1] < i2[0]), rho=p["rho"],
                    verdict=_verdict(i2[-1] < i2[0])))
    dist = [distances[n][0] for n in ends]
    for n in ends:
        d, se = distances[n]
        rows.append(row("pairing_l2_distance", d, n=n, stderr=se, samples=small.replicas))
    rows.append(row("pairing_distance_falls", float(dist[-1] < dist[0]),
                    verdict=_verdict(dist[-1] < dist[0])))
    return rows


def _transport_velocity(family: str, scale: float, n: int | None):
    """Built-in velocity families; the 1/n part is the ladder perturbation."""
    wobble = 0.0 if n is None else 1.0 / n
    if family == "constant":
        return (lambda x: np.full_like(x, scale * (1.0 + 0.4 * wobble)),
                lambda x: np.zeros_like(x))
    return (lambda x: scale + 0.25 * np.sin(2 * np.pi * x) + 0.2 * wobble * np.sin(4 * np.pi * x),
            lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x) + 0.8 * np.pi * wobble * np.cos(4 * np.pi * x))


def _transport_problem(p: dict, n: int | None):
    """Ladder member for index n; the limit problem for n = None."""
    wobble = 0.0 if n is None else 1.0 / n
    b, div_b = _transport_velocity(p["velocity"], p["velocity_scale"], n)
    return transport_mod.TransportProblem(
        velocity=b, divergence=div_b,
        source=lambda x: 0.1 * np.cos(2 * np.pi * x) * (1.0 + wobble),
        noise=transport_mod.bounded_smooth_noise(p["noise_amplitude"]),
        epsilon=wobble,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5 + 0.1 * wobble * np.sin(2 * np.pi * x))


def _ladder_verdicts(row, report, own: list[Row], smallest: float,
                     replicas: int) -> list[Row]:
    """The hypothesis-monitor row, the ladder's `own` rows, then the reference rows:
    no monitor (a data_n -> data distance) may rise along the ladder, and no
    reference error may pass 1/REFERENCE_SHARE of `smallest`, the least ladder value."""
    entries = report.entries
    steady = all(b.monitors[key] <= a.monitors[key] + ROUNDOFF
                 for a, b in zip(entries, entries[1:]) for key in a.monitors)
    probe = min(replicas, transport_mod.REFERENCE_PROBE)
    return [row("hypothesis_monitors", float(steady), verdict=_verdict(steady)), *own] + [
        row(f"reference_{kind}_error", err, samples=probe,
            verdict=_verdict(err <= smallest / REFERENCE_SHARE))
        for kind, err in report.reference_errors.items()]


def _run_transport(p: dict) -> list[Row]:
    p = apply_defaults("transport", p)
    seed, replicas = p["seed"], p["samples"]
    row = partial(Row, "transport", seed=seed)
    grid = transport_mod.TorusGrid(p["cells"])
    report = transport_mod.stability_experiment(
        {n: _transport_problem(p, n) for n in p["n_ladder"]},
        _transport_problem(p, None),
        CouplingSchedule(), grid, p["horizon"], replicas, seed,
        refine=p["refine"], snapshots=p["snapshots"])
    rows = []
    for e in report.entries:
        rows += [
            row("lp_distance", e.lp_distance, n=e.n, stderr=e.lp_stderr, samples=replicas),
            row("energy_sup", e.energy_sup, n=e.n, samples=replicas,
                verdict=_verdict(e.energy_sup <= report.energy_bound)),
            row("sigma_integral_gap", e.sigma_gap, n=e.n, stderr=e.sigma_gap_stderr,
                samples=replicas),
            row("renorm_integral_gap", e.renorm_gap, n=e.n, stderr=e.renorm_gap_stderr,
                samples=replicas),
            row("sign_monitor", e.sign_monitor_violation, n=e.n, samples=replicas,
                verdict=_verdict(e.sign_monitor_violation <= 0.0)),
        ]
        rows += [row(f"monitor_{key}", val, n=e.n) for key, val in e.monitors.items()]
    d = [e.lp_distance for e in report.entries]
    falling = all(b <= a * (1 + DISTANCE_SLACK) for a, b in zip(d, d[1:])) and _falls(d)
    rows += _ladder_verdicts(row, report, [
        row("gronwall_bound", report.energy_bound),
        row("lp_distance_ladder", float(falling), samples=replicas, verdict=_verdict(falling)),
    ], min(d), replicas)
    # conservation: deterministic path, f = sigma = 0
    cons = transport_mod.TransportProblem(
        velocity=lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x),
        divergence=lambda x: 0.5 * np.pi * np.cos(2 * np.pi * x),
        source=lambda x: np.zeros_like(x),
        noise=None, epsilon=0.05,
        u0=lambda x: np.sin(2 * np.pi * x) + 0.5)
    nt = transport_mod.steps_for_cfl(cons, grid, 0.2)
    path = transport_mod.solve_transport(cons, sample_wiener(TimeGrid(0.2, nt), 1, seed, 0), grid)
    means = path.spatial_mean()
    drift = float(np.max(np.abs(means - means[0])))
    rows.append(row("mass_drift", drift, verdict=_verdict(drift <= ROUNDOFF)))
    return rows


def _claw_flux(family: str, n: int | None):
    wobble = 0.0 if n is None else 1.0 / n
    if family == "cubic":
        return claw_mod.cubic_flux(1.0 + wobble)
    if family == "linear":
        return claw_mod.linear_flux(0.8 * (1.0 + 0.5 * wobble))
    return claw_mod.quadratic_flux(1.0 + wobble, 0.5 * wobble)


def _claw_sigma(family: str, amplitude: float, n: int | None):
    wobble = 0.0 if n is None else 1.0 / n
    if family == "constant":
        return claw_mod.constant_sigma(amplitude * (1.0 + wobble) * np.array([1.0, 0.5]))
    return claw_mod.bounded_smooth_sigma(amplitude * (1.0 + wobble), 1.0,
                                         linear_tilt=0.5 * wobble)


def _claw_problem(p: dict, n: int | None):
    """Ladder member for index n; the limit problem for n = None."""
    return claw_mod.KineticProblem(
        flux=_claw_flux(p["flux"], n),
        sigma=_claw_sigma(p["sigma"], p["sigma_amplitude"], n),
        epsilon=0.0 if n is None else 1.0 / n,
        u0=lambda x: 0.5 + 0.3 * np.sin(2 * np.pi * x),
        xi_min=-1.2, xi_max=2.2)


def _run_claw(p: dict) -> list[Row]:
    p = apply_defaults("claw", p)
    seed, replicas = p["seed"], p["samples"]
    row = partial(Row, "claw", seed=seed)

    # deterministic Burgers shock: Rankine-Hugoniot speed
    T = p["shock_horizon"]
    grid = transport_mod.TorusGrid(p["cells"])
    det = claw_mod.KineticProblem(
        flux=claw_mod.quadratic_flux(), sigma=None, epsilon=0.0,
        u0=claw_mod.burgers_riemann(), xi_min=-0.6, xi_max=1.6)
    nt = transport_mod.steps_for_cfl(det, grid, T, multiple_of=16)
    path, measure = claw_mod.solve_claw(det, sample_wiener(TimeGrid(T, nt), 1, seed, 0), grid)
    speed = (claw_mod.shock_position(path, nt) - claw_mod.shock_position(path, 0)) / T
    rows = [row("shock_speed", speed, verdict=_verdict(abs(speed - 0.5) <= 2.0 * grid.dx / T))]

    # chi invariants are exact on the same run
    field = claw_mod.kinetic_function(path.values, det)
    chi = field.indicator(nt)
    chi_ok = (set(np.unique(chi)) <= {0, 1}) and bool(np.all(np.diff(chi.astype(int), axis=-1) <= 0))
    rows.append(row("chi_invariants_exact", float(chi_ok), verdict=_verdict(chi_ok)))
    min_bin = float(min(measure.kappa_cum.min(), measure.parabolic_cum.min()))
    rows.append(row("measure_min_bin", min_bin, verdict=_verdict(min_bin >= 0.0)))

    # weak kinetic residual under mesh halving
    residuals = []
    T2 = 0.2
    for cells in p["det_cells"]:
        g2 = transport_mod.TorusGrid(cells)
        nt2 = transport_mod.steps_for_cfl(det, g2, T2, multiple_of=16)
        W2 = sample_wiener(TimeGrid(T2, nt2), 1, seed, 0)
        path2, measure2 = claw_mod.solve_claw(det, W2, g2)
        phi2 = claw_mod.bump_test_function(
            TestFunction.from_callable(cells, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)),
            -0.4, 1.4)
        residuals.append(abs(claw_mod.kinetic_residual(path2, measure2, det, W2, phi2, T2)))
        rows.append(row("kinetic_residual", residuals[-1], n=cells))
    ratio = residuals[0] / max(residuals[-1], 1e-300)
    rows.append(row("residual_refinement_ratio", ratio, verdict=_verdict(ratio >= 1.5)))

    # stochastic kinetic ladder
    psi = TestFunction.from_callable(p["cells"], lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    phi = claw_mod.bump_test_function(psi, -0.9, 1.9)
    report = claw_mod.kinetic_stability_experiment(
        {n: _claw_problem(p, n) for n in p["n_ladder"]}, _claw_problem(p, None),
        CouplingSchedule(), transport_mod.TorusGrid(p["cells"]), p["horizon"],
        replicas, seed, phi, refine=p["refine"])
    for e in report.entries:
        rows += [
            row("ito_weak_gap", e.ito_gap, n=e.n, stderr=e.ito_gap_stderr, samples=replicas),
            row("chi_weak_star_gap", e.chi_gap, n=e.n, stderr=e.chi_gap_stderr,
                samples=replicas),
            row("measure_pairing_gap", e.measure_pairing_gap, n=e.n, samples=replicas),
            row("measure_total_mass", e.total_mass, n=e.n, samples=replicas),
        ]
    masses = [e.total_mass for e in report.entries]
    bounded = max(masses) <= MASS_GROWTH * max(min(masses), 1e-300)
    gaps = [e.ito_gap for e in report.entries]
    rows += _ladder_verdicts(row, report, [
        row("mass_uniformly_bounded", float(bounded), verdict=_verdict(bounded)),
        row("ito_gap_ratio", gaps[-1] / max(gaps[0], 1e-300), samples=replicas,
            verdict=_verdict(_falls(gaps))),
    ], min(gaps), replicas)
    return rows


RUNNERS = {
    "isometry": _run_isometry,
    "mollifier": _run_mollifier,
    "translate": _run_translate,
    "counterexample": _run_counterexample,
    "theorem21": _run_theorem21,
    "l1mode": _run_l1mode,
    "corollary42": _run_corollary42,
    "transport": _run_transport,
    "claw": _run_claw,
}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _write_csv(path: Path, rows: list[Row]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_record())
    path.write_text(buf.getvalue())


def _failure(name: str, row: Row) -> str:
    """experiment:statistic with the row's n, value and stderr as the CSV prints them."""
    _, n, _, _, stat, value, stderr, *_ = row.as_record()
    tail = f", stderr={stderr})" if stderr else ")"
    return f"{name}:{stat} (n={n or '-'}, value={value}{tail}"


def run(config_path: str, subcommand: str, out_dir: str,
        workers: int | None = None, seed_override: int | None = None) -> int:
    """Execute one subcommand (or all); returns the process exit status.

    `workers` is accepted for compatibility and must be >= 1; it changes
    neither threads nor results, since every run is single-threaded.
    """
    if subcommand not in EXPERIMENTS + ["all"]:
        raise ConfigurationError(
            f"unknown subcommand {subcommand!r}; accepted: {EXPERIMENTS + ['all']}")
    if seed_override is not None and seed_override < 0:
        raise ConfigurationError(f"--seed-override must be non-negative, got {seed_override}")
    if workers is not None and workers < 1:
        raise ConfigurationError("--workers must be >= 1")
    plan = parse_config(Path(config_path).read_text())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if subcommand == "all":
        chosen = plan.get("run", {}).get("experiments")
        if chosen is None:
            chosen = [name for name in EXPERIMENTS if name in plan]
        for name in chosen:
            if name not in EXPERIMENTS:
                raise ConfigurationError(
                    f"unknown experiment {name!r} in [run]; accepted: {EXPERIMENTS}")
            if name not in plan:
                raise ConfigurationError(f"experiment {name!r} requested but section missing")
        targets = chosen
    else:
        if subcommand not in plan:
            raise ConfigurationError(f"config has no [{subcommand}] section")
        targets = [subcommand]

    failures: list[str] = []
    errors: list[str] = []
    all_rows: list[Row] = []
    for name in targets:
        params = dict(plan[name])
        if seed_override is not None:
            params["seed"] = seed_override
        try:
            rows = RUNNERS[name](params)
        except (CFLError, RangeEscapeError, SolverBlowupError) as exc:
            message = f"{type(exc).__name__}: {exc}"
            rows = [Row(name, f"solver_error: {message}", None, seed=params["seed"],
                        verdict="error")]
            errors.append(f"{name}: {message}")
        _write_csv(out / f"{name}.csv", rows)
        all_rows.extend(rows)
        failures.extend(_failure(name, r) for r in rows if r.verdict in ("fail", "invalid"))
    if subcommand == "all":
        _write_csv(out / "all.csv", all_rows)

    for error in errors:
        print(f"solver error: {error}", file=sys.stderr)
    if failures:
        print(f"FAILED verdicts ({len(failures)}): " + "; ".join(failures))
    return 3 if errors else 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochlab",
        description="stochastic-integral convergence experiments")
    parser.add_argument("subcommand", choices=EXPERIMENTS + ["all"])
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", required=True, help="output directory for CSV reports")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility (>= 1); changes neither "
                             "threads nor results")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="override every section seed")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.subcommand, args.out, args.workers,
                   args.seed_override)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
