"""End-to-end: every workload runs in --smoke mode, untraced metrics
and the trace, and the run is reproducible where it must be."""

import json
import os
import subprocess
import sys
import time

from bench import metrics
from bench.workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(*args, env=None):
    base = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    base.update(env or {})
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=ROOT, env=base, capture_output=True, text=True, timeout=170,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_smoke_all_workloads_traced_within_budget():
    started = time.time()
    for name in NAMES:
        result = result_of(run("--workload", name, "--seed", "3", "--smoke",
                               "--trace", "1"))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == metrics.PER_LAYER
        assert result["metrics"]["harness.leaked_segments"]["value"] == 0
        assert result["metrics"]["trace.coverage"]["value"] > 0
    assert time.time() - started < 30
    assert os.path.exists(os.path.join(ROOT, "trace.json"))


def test_same_seed_same_ops_and_code_bytes():
    a = result_of(run("--workload", "lib_dispatch", "--seed", "5", "--smoke"))
    b = result_of(run("--workload", "lib_dispatch", "--seed", "5", "--smoke"))
    assert {k: v["unit"] for k, v in a["metrics"].items()} == metrics.END_TO_END
    assert a["attempted"] == b["attempted"]
    assert a["metrics"]["code_bytes"]["value"] == b["metrics"]["code_bytes"]["value"] > 0
    for m in a["metrics"].values():
        assert m["value"] > 0


def test_refuses_a_non_default_configuration():
    out = run("--workload", "lib_dispatch", "--smoke", env={"REPRO_POOL": "1"})
    assert out.returncode != 0
    assert "REPRO_POOL" in out.stderr
    assert not out.stdout.strip().startswith("{")


def test_private_dirs_are_removed():
    result_of(run("--workload", "build_cold", "--seed", "1", "--smoke"))
    leftovers = os.path.join(ROOT, ".bench_run")
    assert not os.path.exists(leftovers) or not os.listdir(leftovers)


def test_no_process_outlives_a_run():
    # an orphan of the run (the pool's segment tracker, a server's
    # helper) is re-parented to the nearest subreaper: this process
    from bench import harness

    harness.adopt_orphans()
    result_of(run("--workload", "job_sharded", "--seed", "2", "--smoke"))
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = None
    assert left is None, f"the run left a process behind: {left}"
