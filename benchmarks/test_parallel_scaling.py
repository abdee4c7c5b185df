"""Parallel runtime scaling: serial vs 2- and 4-worker sharded runs.

SpMV and sparse-dense matmul, timed unsharded, sharded on the serial
executor (isolates the plan/slice/merge overhead), and sharded on the
thread executor at 2 and 4 workers — no ``bench/`` cell runs the
thread executor, and it is the fastest one for C kernels
(EXPERIMENTS.md E16).  All raw numbers are written to
``BENCH_PR4.json`` at the repo root; the file as committed still holds
the ``process_*`` rows recorded before that executor was deleted.

No speedup is asserted: on a single-core container every executor
necessarily degenerates to serialized shard execution plus dispatch
overhead, and the recorded numbers (with ``cpus``) say so honestly.
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

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.benchrecord import report_path
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_matrix, dense_vector, sparse_matrix

REPORT_PATH = report_path("BENCH_PR4.json")
RESULTS = {}

CPUS = os.cpu_count() or 1
HAVE_GCC = shutil.which("gcc") is not None
BACKEND = "c" if HAVE_GCC else "python"


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    report = {
        "machine": platform.machine(),
        "cpus": CPUS,
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
        backend=BACKEND, name="scaling_spmv",
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
        backend=BACKEND, name="scaling_matmul",
    )
    return kernel, {"A": A, "B": B}


def _measure(name, kernel, tensors):
    ref = kernel.execute(tensors)
    timings = {
        "single": _best(lambda: kernel.execute(tensors)),
        "sharded_serial_4": _best(lambda: kernel.run_sharded(
            tensors, executor="serial", shards=4)),
    }
    for w in (2, 4):
        got = kernel.run_sharded(
            tensors, executor="thread", workers=w, shards=w)
        assert np.allclose(np.asarray(ref.vals), np.asarray(got.vals))
        timings[f"thread_{w}"] = _best(lambda: kernel.run_sharded(
            tensors, executor="thread", workers=w, shards=w))
    serial = timings["single"]
    RESULTS[name] = {
        "seconds": timings,
        "speedup": {
            key: serial / t for key, t in timings.items() if key != "single"
        },
    }
    return RESULTS[name]


def test_spmv_scaling():
    kernel, tensors = _spmv()
    result = _measure("spmv", kernel, tensors)
    # sharding overhead on the serial executor stays bounded: the
    # plan/slice/merge pipeline is numpy-vectorized O(rows)
    assert result["speedup"]["sharded_serial_4"] > 0.1


def test_matmul_scaling():
    kernel, tensors = _matmul()
    result = _measure("matmul", kernel, tensors)
    assert result["speedup"]["sharded_serial_4"] > 0.1
