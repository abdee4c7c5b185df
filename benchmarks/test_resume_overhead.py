"""Durable-job overhead: journaling, resume, and governed spill cost.

Three questions, answered with raw numbers in ``BENCH_PR10.json``:

1. what does ``durable=True`` cost over the plain in-RAM sharded run
   (checksummed atomic shard writes + journal bookkeeping)?
2. how much of a killed job's work does resume actually save (shards
   skipped vs re-executed, and the wall-clock ratio)?
3. what does the memory governor's spill + streaming ⊕-merge cost over
   the eager everything-resident merge?

The assertions only pin sanity — durable runs stay within an order of
magnitude and resume re-executes strictly fewer shards — because
absolute disk cost varies wildly across container filesystems.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchrecord import report_path
from repro.compiler import resilience
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.errors import InjectedFault
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix

REPORT_PATH = report_path("BENCH_PR10.json")
RESULTS = {}

N = 1600
SHARDS = 8


@pytest.fixture(scope="module", autouse=True)
def _write_report(tmp_path_factory):
    os.environ["REPRO_JOB_DIR"] = str(tmp_path_factory.mktemp("jobs"))
    yield
    os.environ.pop("REPRO_JOB_DIR", None)
    report = {
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "shards": SHARDS,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _best(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _spmv():
    """Free split: per-row output windows, concatenation merge."""
    A = sparse_matrix(N, N, 0.01, attrs=("i", "j"), seed=11)
    x = dense_vector(N, attr="j", seed=12)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (N,)),
        backend="python", name="resume_spmv",
    )
    return kernel, {"A": A, "x": x}


def _colmix():
    """Contracted split: full-shape partials, ⊕-merge (the spill case)."""
    A = sparse_matrix(N, N, 0.01, attrs=("i", "j"), seed=13)
    u = dense_vector(N, attr="i", seed=14)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "u": {"i"}})
    kernel = compile_kernel(
        Sum("i", Var("A") * Var("u")), ctx, {"A": A, "u": u},
        OutputSpec(("j",), ("dense",), (N,)),
        backend="python", name="resume_colmix",
    )
    return kernel, {"A": A, "u": u}


def test_journal_overhead():
    """durable=True vs the plain in-RAM sharded run."""
    kernel, tensors = _spmv()
    plain = _best(lambda: kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS))
    durable = _best(lambda: kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS, durable=True))
    RESULTS["journal_overhead"] = {
        "seconds": {"plain": plain, "durable": durable},
        "overhead_seconds": durable - plain,
        "slowdown": durable / plain,
    }
    assert RESULTS["journal_overhead"]["slowdown"] < 25.0


def test_resume_saves_reexecution():
    """Kill after 6/8 shards; the resume must skip exactly those 6."""
    kernel, tensors = _colmix()
    uninterrupted = _best(lambda: kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS, durable=True), reps=3)

    resilience.reset_fault_counters()
    os.environ["REPRO_FAULT"] = "shard:raise:6"
    try:
        with pytest.raises(InjectedFault):
            kernel.run_sharded(
                tensors, executor="serial", shards=SHARDS, durable=True)
    finally:
        os.environ.pop("REPRO_FAULT", None)
        resilience.reset_fault_counters()

    stats: list = []
    t0 = time.perf_counter()
    kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS, durable=True,
        stats_out=stats)
    resume_seconds = time.perf_counter() - t0
    skipped = sum(1 for s in stats if s.skipped)
    RESULTS["resume"] = {
        "shards": SHARDS,
        "journaled_before_kill": 6,
        "skipped_on_resume": skipped,
        "seconds": {
            "uninterrupted": uninterrupted,
            "resume": resume_seconds,
        },
        "resume_ratio": resume_seconds / uninterrupted,
    }
    assert skipped == 6


def test_spill_merge_overhead():
    """Governed spill + streaming ⊕-merge vs the eager resident merge."""
    kernel, tensors = _colmix()
    eager = _best(lambda: kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS))

    os.environ["REPRO_MEM_BUDGET_MB"] = "0.000001"
    try:
        job: dict = {}
        spilling = _best(lambda: kernel.run_sharded(
            tensors, executor="serial", shards=SHARDS, job_out=job))
    finally:
        os.environ.pop("REPRO_MEM_BUDGET_MB", None)
    RESULTS["spill_merge"] = {
        "seconds": {"eager": eager, "spilling": spilling},
        "overhead_seconds": spilling - eager,
        "slowdown": spilling / eager,
        "spills": job.get("spills", 0),
    }
    assert job.get("spills", 0) >= 1
    assert RESULTS["spill_merge"]["slowdown"] < 50.0
