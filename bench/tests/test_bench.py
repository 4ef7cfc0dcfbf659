"""Fast tests of the benchmark harness on a tiny config.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402

SEED = 7
# translate: replicas R, N steps, n_ladder of L entries, k = 2 noise components
R, N, L, CELLS = 4, 64, 2, 16
TINY = f"""\
[translate]
seed = {SEED}
samples = {R}
cells = {CELLS}
time_steps = {N}
n_ladder = 32, 64
h_ladder = 1/32, 1/16, 1/8, 1/4
# the coarse tiny grid fits slopes near 0.36
slope_min = 0.3

[l1mode]
seed = {SEED}
samples = 40
time_steps = 32
cells = 8
n_ladder = 2, 8
"""


@pytest.fixture
def tiny(tmp_path):
    tiny = workloads.Workload("tiny", {"translate": {}, "l1mode": {}})
    text, sections = workloads.make_config(TINY, tiny, SEED)
    config = tmp_path / "tiny.ini"
    config.write_text(text)
    return config, sections, tmp_path


def test_harness_runs_to_its_end(tiny):
    config, sections, out = tiny
    result = run.bench(config, sections, SEED, 0.0, False, out)
    assert (result["attempted"], result["failed"]) == (2 * len(sections), 0)
    assert set(result["metrics"]) == {"cpu_s", "cpu_nproc_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)

    traced = run.bench(config, sections, SEED, 0.0, True, out)
    assert (traced["attempted"], traced["failed"]) == (3 * len(sections), 0)
    assert "trace.overhead_s" in traced["metrics"]


def test_failed_check_counts_as_failed_operation(tiny):
    import stochlab.cli as cli
    config, sections, out = tiny
    ops = run.run_pass(cli, config, ["l1mode"], 1, out / "w1")
    reference = {op.experiment: op.csv for op in ops}
    assert run.failed_ops(ops, reference, sections, SEED) == 0

    ops[0].csv = ops[0].csv.replace(b",pass\n", b",fail\n", 1)
    assert run.failed_ops(ops, reference, sections, SEED) == 1
    assert workloads.check("l1mode", ops[0].csv, {}, SEED)


def test_tracer_counts_match_the_config(tiny):
    import stochlab.cli as cli
    config, sections, out = tiny
    with Tracer() as tracer:
        ops = run.run_pass(cli, config, ["translate"], 1, out / "traced")
    assert ops[0].status is not None
    # one increment_chunk of R x N x 2 normals per ladder entry and system,
    # one Philox generator per replica in each
    assert tracer.counts["wiener.normals"] == 2 * L * R * N * 2
    assert tracer.counts["wiener.generators"] == 2 * L * R
    for marcher in ("transport", "claw"):
        assert tracer.counts[f"{marcher}.steps"] == L * N
        assert tracer.counts[f"{marcher}.cell_steps"] == L * R * CELLS * N
        assert tracer.counts[f"{marcher}.reference_steps"] == 0
    assert tracer.self_s["translation.modulus"] > 0


def test_tracer_restores_every_original():
    import stochlab.claw as claw
    import stochlab.wiener as wiener
    before = (claw.pairwise_sum, claw._march_claw, wiener.ReplicaDraw.__dict__["sample"])
    with Tracer():
        assert claw.pairwise_sum is not before[0]
    assert (claw.pairwise_sum, claw._march_claw,
            wiener.ReplicaDraw.__dict__["sample"]) == before


def test_unwrapped_original_is_detected():
    import stochlab._util as util
    import stochlab.claw as claw
    original = util.pairwise_sum
    tracer = Tracer().install()
    try:
        tracer.check_patched()
        claw.pairwise_sum = original
        with pytest.raises(TracerError, match="stochlab.claw.pairwise_sum"):
            tracer.check_patched()
    finally:
        tracer.uninstall()
    assert claw.pairwise_sum is original
