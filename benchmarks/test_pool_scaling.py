"""Pool runtime benchmark: zero-copy pooled execution vs the fork.

SpMV and sparse-dense matmul, timed:

* unsharded in-process (the baseline every ratio is against);
* sharded on the persistent ``pool`` executor (resident kernels +
  shared-memory operands);
* fork-per-call supervised (the PR 5 shape);
* warm pooled-supervised (``REPRO_POOL=1``'s routing: supervision
  amortized inside resident workers).

All raw numbers go to ``BENCH_PR6.json`` at the repo root next to the
PR 4/PR 5 reports; ``benchmarks/report.py --deltas`` renders the
cross-PR comparison.  (The file as committed still holds the
``process_2`` / ``pool_vs_process`` cells recorded before the
spawn-per-call ``process`` executor was deleted: it lost to the pool
2.4–3.8× there.)  The report records ``os.cpu_count()`` honestly
and carries a ``representative`` flag — parallel *speedups* measured
on a single-CPU container are dispatch-overhead measurements, not
scaling results, and are asserted only on multi-core machines.  The
warm pooled-supervised slowdown is the criterion that is meaningful on
any machine: it is pure per-call overhead amortization, independent of
core count.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.benchrecord import report_path
from repro.lang import Sum, TypeContext, Var
from repro.runtime import pool as pool_mod
from repro.runtime.supervisor import can_supervise, run_supervised
from repro.workloads import dense_matrix, dense_vector, sparse_matrix

REPORT_PATH = report_path("BENCH_PR6.json")
RESULTS = {}

CPUS = os.cpu_count() or 1
MULTICORE = CPUS >= 2
HAVE_GCC = shutil.which("gcc") is not None
BACKEND = "c" if HAVE_GCC else "python"

pytestmark = pytest.mark.skipif(
    not can_supervise(object()),
    reason="no fork on this platform; the supervised comparisons need it",
)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    pool_mod.shutdown_shared_pool()
    report = {
        "machine": platform.machine(),
        "cpus": CPUS,
        "representative": MULTICORE,
        "note": (
            "parallel speedups are representative"
            if MULTICORE else
            "single-CPU machine: speedup columns measure dispatch "
            "overhead, not parallel scaling; only the supervised "
            "slowdown ratios are meaningful here"
        ),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": BACKEND,
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
    n = 3000 if BACKEND == "c" else 1200
    A = sparse_matrix(n, n, 0.01, attrs=("i", "j"), seed=1)
    x = dense_vector(n, attr="j", seed=2)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        backend=BACKEND, name="pool_bench_spmv",
    )
    return kernel, {"A": A, "x": x}


def _matmul():
    n = 3000 if BACKEND == "c" else 300
    k = 512 if BACKEND == "c" else 80
    A = sparse_matrix(n, n, 0.02, attrs=("i", "j"), seed=3)
    B = dense_matrix(n, k, attrs=("j", "k"), seed=4)
    ctx = TypeContext(
        Schema.of(i=None, j=None, k=None),
        {"A": {"i", "j"}, "B": {"j", "k"}},
    )
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "dense"), (n, k)),
        backend=BACKEND, name="pool_bench_matmul",
    )
    return kernel, {"A": A, "B": B}


def _measure(name, kernel, tensors):
    ref = kernel._run_single(tensors)

    def check(got):
        assert np.allclose(np.asarray(ref.vals), np.asarray(got.vals))

    check(kernel.run_sharded(tensors, executor="pool", workers=2, shards=2))
    check(run_supervised(kernel, tensors))
    # warm the pooled-supervised path before timing it: the first call
    # ships the recipe and builds the kernel in each worker
    check(pool_mod.run_pooled(kernel, tensors))

    timings = {
        "single": _best(lambda: kernel._run_single(tensors)),
        "pool_2": _best(lambda: kernel.run_sharded(
            tensors, executor="pool", workers=2, shards=2)),
        "fork_supervised": _best(lambda: run_supervised(kernel, tensors)),
        "pool_supervised_warm": _best(
            lambda: pool_mod.run_pooled(kernel, tensors)),
    }
    base = timings["single"]
    RESULTS[name] = {
        "seconds": timings,
        "speedup": {"pool_2": base / timings["pool_2"]},
        "supervised_slowdown": {
            "fork": timings["fork_supervised"] / base,
            "pool_warm": timings["pool_supervised_warm"] / base,
        },
    }
    return RESULTS[name]


def test_spmv_pool_scaling():
    kernel, tensors = _spmv()
    result = _measure("spmv", kernel, tensors)
    # supervision amortized in resident workers must beat a fork per call
    slow = result["supervised_slowdown"]
    assert slow["pool_warm"] < slow["fork"], result


def test_matmul_pool_scaling():
    kernel, tensors = _matmul()
    result = _measure("matmul", kernel, tensors)
    # the acceptance criterion that holds on any machine: with the
    # sandbox amortized, warm pooled supervision costs < 1.5x in-process
    assert result["supervised_slowdown"]["pool_warm"] < 1.5, result
    if MULTICORE:
        # a shard speedup > 1 is only meaningful with real cores
        assert result["speedup"]["pool_2"] > 1.0, result
