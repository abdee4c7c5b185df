"""Stream-property verifier overhead: cold compile, warm prepare, and
the raw analysis (PR 8).

Three measurements go to ``BENCH_PR8.json`` at the repo root:

* **cold build** — ``compile_kernel`` with the cache off, stream
  verification on vs off.  The acceptance bar is ≤5% overhead; the
  assertion allows 25% slack because sub-millisecond builds on a noisy
  container jitter far more than a real toolchain invocation.
* **warm prepare** — with the build cache on, the verifier memoizes by
  cache key, so a warm ``prepare`` must cost the same with the pass on
  or off (one set lookup) — this is what "amortized by the build
  cache" means.
* **analysis alone** — ``verify_expr`` micro-timed, to show the pass
  itself is a handful of dict lookups per AST node.

Assertions pin sanity, not absolute numbers; the recorded JSON feeds
``report.py --deltas``.
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

from repro.compiler.analysis.streamprops import verify_expr
from repro.compiler.build import KernelBuilder, compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.compiler.scalars import scalar_ops_for
from repro.compiler.formats import TensorInput
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.benchrecord import report_path
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

REPORT_PATH = report_path("BENCH_PR8.json")
RESULTS = {}

HAVE_GCC = shutil.which("gcc") is not None
BACKEND = "c" if HAVE_GCC else "python"

N = 2000 if BACKEND == "c" else 800


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    report = {
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
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


def _problem():
    A = sparse_matrix(N, N, 0.01, attrs=("i", "j"), seed=1)
    x = dense_vector(N, attr="j", seed=2)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (N,))
    return expr, ctx, {"A": A, "x": x}, out


def test_cold_compile_overhead():
    """Cold (uncached) builds with the verifier on vs off."""
    expr, ctx, inputs, out = _problem()

    def build(flag: bool):
        compile_kernel(
            expr, ctx, inputs, out, semiring=FLOAT, backend=BACKEND,
            cache=False, name="vo_cold", stream_verify=flag,
        )

    t_off = _best(lambda: build(False), reps=5)
    t_on = _best(lambda: build(True), reps=5)
    overhead = (t_on - t_off) / t_off if t_off > 0 else 0.0
    RESULTS["cold_build"] = {
        "backend": BACKEND,
        "off_s": t_off,
        "on_s": t_on,
        "overhead_pct": round(100.0 * overhead, 2),
    }
    # acceptance bar is 5%; allow generous jitter slack on tiny builds
    assert t_on <= t_off * 1.25 + 2e-3, (
        f"verifier adds {100 * overhead:.1f}% to a cold build"
    )


def test_warm_prepare_amortized():
    """With the cache on, the verdict is memoized by cache key: warm
    prepares must not re-run the analysis."""
    expr, ctx, inputs, out = _problem()
    on = KernelBuilder(ctx, FLOAT, backend=BACKEND, cache=True,
                       stream_verify=True)
    off = KernelBuilder(ctx, FLOAT, backend=BACKEND, cache=True,
                        stream_verify=False)
    on.prepare(expr, inputs, out, name="vo_warm")   # populate the memo
    t_on = _best(lambda: on.prepare(expr, inputs, out, name="vo_warm"),
                 reps=20)
    t_off = _best(lambda: off.prepare(expr, inputs, out, name="vo_warm"),
                  reps=20)
    ratio = t_on / t_off if t_off > 0 else 1.0
    RESULTS["warm_prepare"] = {
        "on_s": t_on,
        "off_s": t_off,
        "ratio": round(ratio, 3),
    }
    # the memoized path is one set lookup on top of key hashing
    assert ratio < 1.5, f"warm prepare {ratio:.2f}x slower with verify on"


def test_analysis_alone_is_cheap():
    expr, ctx, _, _ = _problem()
    ops = scalar_ops_for(FLOAT)
    specs = {
        "A": TensorInput("A", ("i", "j"), ("dense", "sparse"), ops),
        "x": TensorInput("x", ("j",), ("dense",), ops),
    }
    t = _best(
        lambda: verify_expr(expr, ctx, specs=specs, semiring=FLOAT),
        reps=50,
    )
    RESULTS["verify_expr"] = {"best_s": t}
    assert t < 0.01, f"verify_expr took {t * 1e3:.2f} ms on a 3-node expr"
