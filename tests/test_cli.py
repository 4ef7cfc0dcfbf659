import numpy as np
import pytest

from stochlab import claw as claw_mod
from stochlab import convergence_lab as lab
from stochlab import transport as transport_mod
from stochlab.cli import (_run_claw, _run_counterexample, _run_isometry, main,
                          parse_config, run)
from stochlab.errors import ConfigurationError
from stochlab.processes import Ensemble
from stochlab.wiener import CouplingSchedule, TimeGrid

SMALL_CONFIG = """\
[isometry]
seed = 7
samples = 4000
time_steps = 128
identity_paths = 100

[mollifier]
seed = 7
samples = 20
time_steps = 512

[counterexample]
seed = 7
samples = 4000
time_steps = 256
sine_n_ladder = 4, 16
spike_n_ladder = 4
tolerance = 0.06

[theorem21]
seed = 7
samples = 2000
time_steps = 128
decomposition_samples = 500

[l1mode]
seed = 7
samples = 1500
time_steps = 128
cells = 32

[corollary42]
seed = 7
samples = 2000
time_steps = 128

[translate]
seed = 7
samples = 96
cells = 32
time_steps = 1024
n_ladder = 32, 64

[transport]
seed = 7
samples = 16
cells = 32
horizon = 0.1
snapshots = 8

[claw]
seed = 7
samples = 24
cells = 32
horizon = 0.1
refine = 2
det_cells = 32, 64
shock_horizon = 0.2
"""


def test_parse_minimal_config():
    plan = parse_config("[counterexample]\nseed = 3\nsamples = 100\n")
    assert set(plan) == {"counterexample"}
    assert plan["counterexample"]["seed"] == 3
    assert plan["counterexample"]["which"] == "both"


def test_parse_lag_ladder_fractions():
    plan = parse_config(
        "[translate]\nseed = 1\nsamples = 10\nh_ladder = 1/256, 1/128, 1/64, 1/32\n")
    assert plan["translate"]["h_ladder"] == [1 / 256, 1 / 128, 1 / 64, 1 / 32]


def test_unknown_key_lists_accepted_set():
    with pytest.raises(ConfigurationError, match="accepted"):
        parse_config("[isometry]\nseed = 1\nsamples = 10\nbogus = 2\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config("[nonsense]\nseed = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("[isometry]\nseed = 1\nseed = 2\nsamples = 10\n")


def test_missing_required_key_names_defaults():
    with pytest.raises(ConfigurationError, match="missing required key 'seed'"):
        parse_config("[isometry]\nsamples = 10\n")


def test_negative_samples_rejected_with_key_name():
    with pytest.raises(ConfigurationError, match="samples"):
        parse_config("[isometry]\nseed = 1\nsamples = -5\n")


def test_run_unknown_subcommand(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[isometry]\nseed = 1\nsamples = 200\ntime_steps = 32\n")
    with pytest.raises(ConfigurationError):
        run(str(cfg), "bogus", str(tmp_path / "out"))


def test_run_missing_section(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[isometry]\nseed = 1\nsamples = 200\n")
    with pytest.raises(ConfigurationError, match="no \\[transport\\] section"):
        run(str(cfg), "transport", str(tmp_path / "out"))


def test_counterexample_subcommand_rows(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[counterexample]\nseed = 7\nsamples = 5000\ntime_steps = 256\n"
                   "sine_n_ladder = 4\nspike_n_ladder = 4\ntolerance = 0.06\n")
    out = tmp_path / "out"
    status = run(str(cfg), "counterexample", str(out))
    assert status == 0
    lines = (out / "counterexample.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["experiment", "n", "rho", "h", "statistic", "value",
                      "stderr", "samples", "seed", "verdict"]
    moment_rows = [l for l in lines if ",second_moment," in l]
    assert len(moment_rows) == 1
    val = float(moment_rows[0].split(",")[5])
    assert abs(val - 0.25) < 0.25 * 0.06
    # every row carries experiment, statistic, value, seed: full provenance
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[0] == "counterexample" and parts[4] and parts[5] and parts[8]


def test_counterexample_one_pass_equals_separate_passes(monkeypatch):
    # sine 4 and 16 and spike 4 read off one pass give the rows that one
    # counterexample_sine / counterexample_spike pass per n gives
    params = {"seed": 7, "samples": 700, "time_steps": 64, "sine_n_ladder": [4, 16],
              "spike_n_ladder": [4]}
    one_pass = _run_counterexample(dict(params))
    grid, ens, sched = TimeGrid(1.0, 64), Ensemble(7, 700), CouplingSchedule()
    separate = [lab.counterexample_sine(4, ens, grid, sched),
                lab.counterexample_sine(16, ens, grid, sched),
                lab.counterexample_spike(4, ens, grid, sched)]

    def replay(grid, k, *statistics):
        assert len(statistics) == len(separate)
        return separate
    monkeypatch.setattr(lab, "run_pass", replay)
    assert [repr(r) for r in _run_counterexample(dict(params))] == [repr(r) for r in one_pass]
    assert len(one_pass) == 2 * 4 + 5


def test_isometry_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    # 303 samples and 330 identity paths: one chunk, or chunks of 7 whose
    # last moment chunk holds 2 replicas
    params = {"seed": 7, "samples": 303, "time_steps": 64, "identity_paths": 330}
    monkeypatch.setattr(lab, "_CHUNK", 3000)
    one_chunk = _run_isometry(dict(params))
    monkeypatch.setattr(lab, "_CHUNK", 7)
    assert _run_isometry(dict(params)) == one_chunk
    assert len(one_chunk) == 13


def test_seed_override_changes_values(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[isometry]\nseed = 5\nsamples = 500\ntime_steps = 64\n"
                   "identity_paths = 10\n")
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(str(cfg), "isometry", str(out1)) == 0
    assert run(str(cfg), "isometry", str(out2)) == 0
    assert run(str(cfg), "isometry", str(out3), seed_override=99) == 0
    a = (out1 / "isometry.csv").read_bytes()
    b = (out2 / "isometry.csv").read_bytes()
    c = (out3 / "isometry.csv").read_bytes()
    assert a == b
    assert a != c


def test_seed_past_one_uint32_word_runs(tmp_path):
    # seeds of 2**32 and above span several SeedSequence entropy words
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[l1mode]\nseed = {2**70}\nsamples = 200\ntime_steps = 32\n")
    assert run(str(cfg), "l1mode", str(tmp_path / "o"), workers=1) == 0
    rows = (tmp_path / "o" / "l1mode.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[8] == str(2**70) for row in rows)


def test_full_run_all_is_byte_deterministic_across_worker_counts(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(SMALL_CONFIG)
    outs = []
    for name, workers in (("w1", 1), ("w2", 2), ("w1b", 1)):
        out = tmp_path / name
        status = run(str(cfg), "all", str(out), workers=workers)
        assert status == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert outs[0] == outs[1] == outs[2]
    assert "all.csv" in outs[0] and "claw.csv" in outs[0]


def test_main_entrypoint(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[mollifier]\nseed = 3\nsamples = 5\ntime_steps = 256\n")
    status = main(["mollifier", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--workers", "1"])
    assert status == 0


def test_main_reports_config_errors(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[isometry]\nsamples = 10\n")  # seed missing
    status = main(["isometry", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2


def test_run_claw_fills_schema_defaults():
    # only the keys the kinetic acceptance criterion passes: flux, sigma and
    # sigma_amplitude come from the schema defaults
    rows = _run_claw({"seed": 11, "samples": 16, "cells": 32, "horizon": 0.1,
                      "n_ladder": [2, 8, 16], "refine": 2, "det_cells": [32, 64],
                      "shock_horizon": 0.2})
    stats = {r.statistic for r in rows}
    assert {"shock_speed", "ito_weak_gap", "ito_gap_ratio"} <= stats


# the transport noise is always the state-dependent one, so `noise` is no key
TRANSPORT_NOISE_KEY = (
    "unknown key 'noise' in [transport]; accepted: ['cells', 'horizon', 'n_ladder', "
    "'noise_amplitude', 'refine', 'samples', 'seed', 'snapshots', 'velocity', "
    "'velocity_scale']")


@pytest.mark.parametrize("section, text, extra, message", [
    ("isometry", "seed = -3\nsamples = 10\n", [],
     "bad value for 'seed' in [isometry]: must be non-negative"),
    ("theorem21", "seed = 1\nsamples = 10\nn_ladder =\n", [],
     "bad value for 'n_ladder' in [theorem21]: must be a non-empty list"),
    ("isometry", "seed = 3\nsamples = 10\n", ["--seed-override=-3"],
     "--seed-override must be non-negative, got -3"),
    ("isometry", "seed = 3\nsamples = 10\n", ["--workers", "0"], "--workers must be >= 1"),
    ("isometry", "seed = 3\nsamples = 10\n", ["--workers=-4"], "--workers must be >= 1"),
    ("transport", "seed = 1\nsamples = 2\nnoise = none\n", [], TRANSPORT_NOISE_KEY),
    ("transport", "seed = 1\nsamples = 2\nnoise = additive\n", [], TRANSPORT_NOISE_KEY),
    ("theorem21", "seed = 1\nsamples = 10\nn_ladder = 4\n", [],
     "bad value for 'n_ladder' in [theorem21]: "
     "must be strictly increasing with at least 2 entries"),
    ("l1mode", "seed = 1\nsamples = 10\nn_ladder = 8, 2, 32\n", [],
     "bad value for 'n_ladder' in [l1mode]: "
     "must be strictly increasing with at least 2 entries"),
    ("corollary42", "seed = 1\nsamples = 10\nn_ladder = 2, 8, 8\n", [],
     "bad value for 'n_ladder' in [corollary42]: "
     "must be strictly increasing with at least 2 entries"),
    ("transport", "seed = 1\nsamples = 2\nn_ladder = 32\n", [],
     "bad value for 'n_ladder' in [transport]: "
     "must be strictly increasing with at least 2 entries"),
    ("claw", "seed = 1\nsamples = 2\nn_ladder = 16, 2\n", [],
     "bad value for 'n_ladder' in [claw]: "
     "must be strictly increasing with at least 2 entries"),
    ("claw", "seed = 1\nsamples = 2\ndet_cells = 64\n", [],
     "bad value for 'det_cells' in [claw]: "
     "must be strictly increasing with at least 2 entries"),
    ("translate", "seed = 1\nsamples = 2\nh_ladder = 1/64\n", [],
     "bad value for 'h_ladder' in [translate]: must have at least 2 entries"),
    ("transport", "seed = 1\nsamples = 2\nn_ladder = 0, 4\n", [],
     "bad value for 'n_ladder' in [transport]: must be positive"),
    ("translate", "seed = 1\nsamples = 2\nn_ladder = 0, 4\n", [],
     "bad value for 'n_ladder' in [translate]: must be positive"),
    ("counterexample", "seed = 1\nsamples = 1\nwhich = spike\ntime_steps = 64\n"
     "spike_n_ladder = 4\n", [],
     "bad value for 'samples' in [counterexample]: must be at least 2"),
    ("isometry", "seed = 1\nsamples = 1\ntime_steps = 32\n", [],
     "bad value for 'samples' in [isometry]: must be at least 2"),
    ("theorem21", "seed = 1\nsamples = 1\ntime_steps = 16\n", [],
     "bad value for 'samples' in [theorem21]: must be at least 2"),
    ("l1mode", "seed = 1\nsamples = 1\ntime_steps = 16\n", [],
     "bad value for 'samples' in [l1mode]: must be at least 2"),
    ("corollary42", "seed = 1\nsamples = 1\ntime_steps = 16\n", [],
     "bad value for 'samples' in [corollary42]: must be at least 2"),
    ("run", "experiments =\n", [],
     "bad value for 'experiments' in [run]: must be a non-empty list"),
    ("run", "experiments = mollifier, mollifier\n\n[mollifier]\nseed = 1\nsamples = 2\n", [],
     "bad value for 'experiments' in [run]: must not repeat an entry"),
], ids=["negative_seed", "empty_ladder", "negative_seed_override", "zero_workers",
        "negative_workers", "transport_noise_none", "transport_noise_additive",
        "one_entry_ladder", "unsorted_ladder",
        "repeated_ladder_entry", "one_entry_transport_ladder", "decreasing_claw_ladder",
        "one_entry_det_cells", "one_entry_lag_ladder", "zero_in_transport_ladder",
        "zero_in_translate_ladder", "one_counterexample_sample", "one_isometry_sample",
        "one_theorem21_sample", "one_l1mode_sample", "one_corollary42_sample",
        "empty_experiments", "repeated_experiment"])
def test_bad_values_exit_2_with_configuration_error(tmp_path, capsys, section, text,
                                                    extra, message):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{text}")
    subcommand = "all" if section == "run" else section
    status = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")] + extra)
    assert status == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def csv_verdicts(out, section):
    """(statistic, verdict) of every row of the section's CSV, in order."""
    lines = (out / f"{section}.csv").read_text().splitlines()[1:]
    return [(f[4], f[9]) for f in (line.split(",") for line in lines)]


@pytest.mark.parametrize("section, text, module, refined_cells, shift", [
    ("transport", "cells = 32\nhorizon = 0.1\nsnapshots = 8\n", transport_mod, 256, 0.5),
    ("claw", "cells = 32\nhorizon = 0.1\nrefine = 2\ndet_cells = 32, 64\n"
     "shock_horizon = 0.2\n", claw_mod, 128, 0.3),
])
def test_unconverged_reference_fails_its_row(tmp_path, monkeypatch, section, text, module,
                                             refined_cells, shift):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\nseed = 3\nsamples = 4\n{text}")

    def verdicts(out):
        return {stat: v for stat, v in csv_verdicts(out, section) if stat.startswith("reference_")}

    assert run(str(cfg), section, str(tmp_path / "ok"), workers=1) == 0
    assert verdicts(tmp_path / "ok") == {"reference_time_error": "pass",
                                         "reference_space_error": "pass"}
    # planted defect: the reference's refinement in space starts from a shifted datum
    original = module._initial_state

    def shifted(problem, grid, replicas):
        u0 = original(problem, grid, replicas)
        return u0 + shift if grid.cells == refined_cells else u0
    monkeypatch.setattr(module, "_initial_state", shifted)
    assert run(str(cfg), section, str(tmp_path / "bad"), workers=1) == 1
    assert verdicts(tmp_path / "bad") == {"reference_time_error": "pass",
                                          "reference_space_error": "fail"}


def test_failed_verdicts_name_n_value_and_stderr(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[counterexample]\nseed = 7\nsamples = 200\ntime_steps = 64\n"
                   "which = sine\nsine_n_ladder = 4\ntolerance = 1e-9\n")
    out = tmp_path / "out"
    assert run(str(cfg), "counterexample", str(out), workers=1) == 1
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("FAILED verdicts"))
    row = next(l.split(",") for l in (out / "counterexample.csv").read_text().splitlines()
               if ",second_moment," in l)
    assert row[9] == "fail"
    assert f"counterexample:second_moment (n=4, value={row[5]}, stderr={row[6]})" in line


def test_solver_failure_is_an_error_row_and_exit_3(tmp_path, capsys):
    # 64 time steps are too coarse for 16 cells at n = 2: the translation
    # ensemble's march violates the CFL limit
    cfg = tmp_path / "c.ini"
    cfg.write_text("[translate]\nseed = 1\nsamples = 2\ncells = 16\n"
                   "time_steps = 64\nn_ladder = 2, 4\n")
    out = tmp_path / "out"
    status = main(["translate", "--config", str(cfg), "--out", str(out)])
    message = "CFLError: CFL number 4.000 exceeds 0.9"
    assert status == 3
    assert capsys.readouterr().err == f"solver error: translate: {message}\n"
    assert (out / "translate.csv").read_text().splitlines()[1:] == [
        f"translate,,,,solver_error: {message},,,,1,error"]


LADDER_CONFIGS = {
    "transport": "cells = 16\nhorizon = 0.1\nsnapshots = 8\n",
    "claw": "cells = 32\nhorizon = 0.1\nrefine = 2\ndet_cells = 32, 64\nshock_horizon = 0.2\n",
}


def crafted_ladder(section, ladder, monitor, mass):
    """A LadderReport whose per-n statistic (lp_distance or ito_gap), single
    hypothesis monitor and defect mass read the given values."""
    values = zip((2, 8, 16), ladder, monitor, mass)
    if section == "transport":
        entries = [transport_mod.StabilityEntry(n, v, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0,
                                                {"b": m}) for n, v, m, _ in values]
    else:
        entries = [claw_mod.KineticStabilityEntry(n, v, 0.0, 0.0, 0.0, 0.0, w, {"F": m})
                   for n, v, m, w in values]
    return transport_mod.LadderReport(entries, {"time": 1e-4, "space": 1e-4}, energy_bound=10.0)


@pytest.mark.parametrize("section, ladder, monitor, mass, failed", [
    ("transport", (0.3, 0.1, 0.05), (0.5, 0.1, 0.01), (1.0,) * 3, set()),
    ("transport", (0.3, 0.4, 0.05), (0.5, 0.1, 0.01), (1.0,) * 3, {"lp_distance_ladder"}),
    ("transport", (0.3, 0.1, 0.05), (0.5, 0.1, 0.2), (1.0,) * 3, {"hypothesis_monitors"}),
    ("claw", (0.3, 0.1, 0.05), (0.5, 0.1, 0.01), (1.0, 2.0, 3.0), set()),
    ("claw", (0.3, 0.1, 0.05), (0.5, 0.1, 0.01), (1.0, 2.0, 3.5), {"mass_uniformly_bounded"}),
    ("claw", (0.3, 0.1, 0.05), (0.5, 0.1, 0.2), (1.0,) * 3, {"hypothesis_monitors"}),
], ids=["transport_passes", "transport_rising_distance", "transport_rising_monitor",
        "claw_passes", "claw_mass_past_3x", "claw_rising_monitor"])
def test_ladder_verdicts_judge_the_measurements(tmp_path, monkeypatch, section, ladder,
                                                monitor, mass, failed):
    report = crafted_ladder(section, ladder, monitor, mass)
    module, name = ((transport_mod, "stability_experiment") if section == "transport"
                    else (claw_mod, "kinetic_stability_experiment"))
    monkeypatch.setattr(module, name, lambda *args, **kwargs: report)
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\nseed = 3\nsamples = 4\n{LADDER_CONFIGS[section]}")
    assert run(str(cfg), section, str(tmp_path / "o"), workers=1) == (1 if failed else 0)
    verdicts = csv_verdicts(tmp_path / "o", section)
    assert {stat for stat, v in verdicts if v == "fail"} == failed
    assert {stat for stat, v in verdicts if v} >= {"hypothesis_monitors",
                                                  "reference_time_error",
                                                  "reference_space_error"}


@pytest.mark.parametrize("top, ratio_verdict, status", [(2.0, "pass", 0), (2.5, "invalid", 1)],
                         ids=["norms_within_growth_factor", "norm_past_growth_factor"])
def test_l1mode_norm_growth_makes_the_run_invalid(tmp_path, monkeypatch, top, ratio_verdict,
                                                  status):
    entries = [lab.GapEntry(n, s, 0.01, "strong") for n, s in ((2, 1.0), (8, 0.3), (32, 0.1))]
    report = lab.L1ModeReport(lab.ConvergenceReport("strong", entries),
                              {2: 1.0, 8: 1.5, 32: top})
    monkeypatch.setattr(lab, "l1_torus_mode", lambda *args, **kwargs: report)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[l1mode]\nseed = 3\nsamples = 10\ntime_steps = 16\n")
    assert run(str(cfg), "l1mode", str(tmp_path / "o"), workers=1) == status
    verdicts = csv_verdicts(tmp_path / "o", "l1mode")
    assert verdicts[-1] == ("strong_ratio", ratio_verdict)
    statistic_verdicts = {v for stat, v in verdicts if stat == "strong_statistic"}
    assert statistic_verdicts == {"invalid" if status else ""}
