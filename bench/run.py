"""Benchmark for stochlab: drives the public CLI entry point from one process.

    python3 bench/run.py --workload mc_lab --seed 20240811 --seconds 20 --trace 0

Each round runs every experiment of the workload through `stochlab.cli.run`,
once at --workers 1 and once at --workers nproc, checks the CSVs, and takes
the CPU time and the wall time of each call. Rounds repeat while another one
fits in --seconds (at least one).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each round adds a traced pass at both worker counts and the last
line holds the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "configs" / "acceptance.ini"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from workloads import ACCEPTANCE_SEED, WORKLOADS, check, make_config  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); import stochlab.cli as cli; "
              "cli.parse_config(pathlib.Path(sys.argv[2]).read_text())")


@dataclass
class Op:
    """One experiment at one worker count."""
    experiment: str
    workers: int
    seconds: float
    cpu_seconds: float
    status: int | None
    csv: bytes | None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(config: Path) -> float:
    """CPU seconds a fresh interpreter spends to import stochlab and parse the config."""
    before = children_cpu()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                   check=True, cwd=ROOT)
    return children_cpu() - before


def run_pass(cli, config: Path, experiments, workers: int, out: Path) -> list[Op]:
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    for exp in experiments:
        csv_path = out / f"{exp}.csv"
        csv_path.unlink(missing_ok=True)
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.run(str(config), exp, str(out), workers=workers)
        except Exception:
            traceback.print_exc()
            status = None
        seconds, cpu_seconds = perf_counter() - t0, process_time() - c0
        data = csv_path.read_bytes() if csv_path.exists() else None
        ops.append(Op(exp, workers, seconds, cpu_seconds, status, data))
    return ops


def failed_ops(ops: list[Op], reference: dict, sections: dict, seed: int) -> int:
    """Count ops with a non-zero exit, a failed check, or CSV bytes that differ
    from the --workers 1 reference."""
    failed = 0
    for op in ops:
        if op.csv is None:
            problems = ["no CSV written"]
        else:
            problems = check(op.experiment, op.csv, sections[op.experiment], seed)
            if op.csv != reference[op.experiment]:
                problems.append("CSV bytes differ from the --workers 1 run")
        if op.status != 0:
            problems.append(f"exit status {op.status}")
        if problems:
            failed += 1
            print(f"FAILED {op.experiment} workers={op.workers}: " + "; ".join(problems),
                  file=sys.stderr)
    return failed


CLI_EXPERIMENTS = sorted({e for w in WORKLOADS.values() for e in w.experiments})


def layer_metrics(t1, tn) -> dict:
    """Per-layer metrics from a traced --workers 1 pass (t1) and nproc pass (tn)."""
    s, i, c = t1.self_s, t1.incl_s, t1.counts
    out = {
        "wiener.generators": (c["wiener.generators"], "count"),
        "wiener.normals": (c["wiener.normals"], "count"),
        "wiener.replica_draws": (c["wiener.replica_draws"], "count"),
        "wiener.draw_s": (s["wiener.draw"], "s"),
        "ito.integral_calls": (c["ito.integral_calls"], "count"),
        "ito.integral_s": (s["ito.integral"], "s"),
        "mollify.s": (s["mollify"], "s"),
        "convergence_lab.gap_s": (s["convergence_lab.gap"], "s"),
        "convergence_lab.counterexample_s": (s["convergence_lab.counterexample"], "s"),
        "translation.modulus_s": (s["translation.modulus"], "s"),
        "util.pairwise_sum_calls": (c["util.pairwise_sum_calls"], "count"),
        "util.pairwise_sum_s": (s["util.pairwise_sum"], "s"),
        "util.mc_reduce_s": (s["util.mc_reduce"], "s"),
        "util.map_chunks_s": (tn.self_s["util.map_chunks"], "s"),
        "util.chunk_busy_s": (tn.incl_s["util.chunk"], "s"),
        "claw.flux_interface_calls": (c["claw.flux_interface_calls"], "count"),
        "claw.kruzkov_s": (s["claw.kruzkov"], "s"),
        "claw.chi_pairing_s": (s["claw.chi_pairing"], "s"),
    }
    for m in ("transport", "claw"):
        out.update({
            f"{m}.reference_s": (i[f"{m}.reference"], "s"),
            f"{m}.reference_steps": (c[f"{m}.reference_steps"], "count"),
            f"{m}.march_s": (s[f"{m}.march"], "s"),
            f"{m}.steps": (c[f"{m}.steps"], "count"),
            f"{m}.cell_steps": (c[f"{m}.cell_steps"], "count"),
            f"{m}.sigma_calls": (c[f"{m}.sigma_calls"], "count"),
            f"{m}.sigma_s": (s[f"{m}.sigma"], "s"),
            f"{m}.pairing_s": (s[f"{m}.pairing"], "s"),
        })
    for exp in CLI_EXPERIMENTS:
        out[f"cli.{exp}_s"] = (i[f"cli.{exp}"], "s")
    out["cli.csv_write_s"] = (i["cli.csv_write"], "s")
    out["cli.csv_bytes"] = (c["cli.csv_bytes"], "bytes")
    return out


def median_metrics(per_round: list[dict]) -> dict:
    """Median of each metric over rounds; counts must repeat exactly."""
    out = {}
    for name, (value, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between rounds: {values}")
            out[name] = {"value": values[0], "unit": unit}
        else:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def bench(config: Path, sections: dict, seed: int, seconds: float, trace: bool,
          out: Path) -> dict:
    """Run whole rounds of the config's experiments; return the result record."""
    import stochlab.cli as cli
    from tracer import Tracer

    setup = [] if trace else [measure_setup(config) for _ in range(SETUP_REPEATS)]
    workers_n = nproc()
    experiments = list(sections)
    attempted = failed = 0
    rounds, walls = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        ops1 = run_pass(cli, config, experiments, 1, out / "w1")
        reference = {op.experiment: op.csv for op in ops1}
        if trace:
            t1, tn = Tracer(), Tracer()
            with t1:
                traced1 = run_pass(cli, config, experiments, 1, out / "traced-w1")
            with tn:
                tracedn = run_pass(cli, config, experiments, workers_n, out / "traced-wN")
            ops = ops1 + traced1 + tracedn
            metrics = layer_metrics(t1, tn)
            metrics["trace.overhead_s"] = (sum(o.seconds for o in traced1)
                                           - sum(o.seconds for o in ops1), "s")
        else:
            opsn = run_pass(cli, config, experiments, workers_n, out / "wN")
            ops = ops1 + opsn
            metrics = {"cpu_s": (sum(o.cpu_seconds for o in ops1), "s"),
                       "cpu_nproc_s": (sum(o.cpu_seconds for o in opsn), "s")}
            walls.append((sum(o.seconds for o in ops1), sum(o.seconds for o in opsn)))
        attempted += len(ops)
        failed += failed_ops(ops, reference, sections, seed)
        rounds.append(metrics)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - round_start) > seconds:
            break

    result = median_metrics(rounds)
    if not trace:
        result["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    print(f"seed {seed}, nproc {workers_n}, {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed")
    for name, m in result.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if walls:
        w1, wn = (statistics.median(w) for w in zip(*walls))
        print(f"  wall time, not in the result: {w1:.4g} s at --workers 1, "
              f"{wn:.4g} s at --workers {workers_n}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochlab" / "__init__.py").is_file() or not ACCEPTANCE.is_file():
        print(f"bench: no stochlab sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stochlab
    if not Path(stochlab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported stochlab from {stochlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    text, sections = make_config(ACCEPTANCE.read_text(), workload, args.seed)
    config = out / "config.ini"
    config.write_text(text)
    print(f"workload {workload.name}")
    result = bench(config, sections, args.seed, args.seconds, bool(args.trace), out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
