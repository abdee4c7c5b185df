"""Ablation: the IR optimization pipeline, kernel cache, and vectorizer.

Three claims, each asserted with a (deliberately loose) factor so the
suite stays green across machines:

* a warm in-memory cache rebuild of an identical kernel is ≥ 10×
  faster than the cold lower → optimize → codegen build;
* the vectorized Python backend is ≥ 3× faster than the scalar
  emitter on dense-output SpMV (≥ 1.5× on dense matmul, whose inner
  loop is shorter);
* the optimizer passes do not slow the scalar backend down.

The vectoriser's claims are timed nowhere else: every timed ``.run``
cell in ``bench/`` is C.
"""

import time

import numpy as np

from repro.compiler import build as build_mod
from repro.compiler.cache import KernelCache
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_matrix, dense_vector, sparse_matrix


def _best(fn, reps=7):
    """Best-of-N wall time: robust against scheduler noise."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _spmv_workload(n=1000, density=0.05):
    schema = Schema.of(i=None, j=None)
    A = sparse_matrix(n, n, density, attrs=("i", "j"), seed=1)
    x = dense_vector(n, attr="j", seed=2)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (n,))
    return ctx, expr, out, {"A": A, "x": x}


def test_cold_vs_warm_build(monkeypatch, tmp_path):
    kc = KernelCache(cache_dir=tmp_path)
    monkeypatch.setattr(build_mod, "kernel_cache", kc)
    ctx, expr, out, tensors = _spmv_workload(n=200)

    t0 = time.perf_counter()
    compile_kernel(expr, ctx, tensors, out, backend="python", name="bench_cache")
    cold = time.perf_counter() - t0
    assert kc.stats.misses == 1

    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        compile_kernel(expr, ctx, tensors, out, backend="python", name="bench_cache")
    warm = (time.perf_counter() - t0) / reps
    assert kc.stats.memory_hits == reps

    assert cold >= 10 * warm, f"cold {cold * 1e3:.2f}ms vs warm {warm * 1e3:.4f}ms"


def test_spmv_vectorized_vs_scalar():
    ctx, expr, out, tensors = _spmv_workload(n=1000, density=0.05)
    vec = compile_kernel(
        expr, ctx, tensors, out, backend="python", name="bench_spmv_vec"
    ).bind(tensors)
    sca = compile_kernel(
        expr, ctx, tensors, out, backend="python", vectorize=False,
        name="bench_spmv_sca",
    ).bind(tensors)

    vec.run_only(), sca.run_only()  # warm-up
    assert np.allclose(vec.env["out_vals"], sca.env["out_vals"])

    t_vec, t_sca = _best(vec.run_only), _best(sca.run_only)
    assert t_sca >= 3 * t_vec, f"scalar {t_sca * 1e3:.2f}ms vs vec {t_vec * 1e3:.2f}ms"


def test_matmul_vectorized_vs_scalar():
    n = 96
    schema = Schema.of(i=None, j=None, k=None)
    A = dense_matrix(n, n, attrs=("i", "j"), seed=3)
    B = dense_matrix(n, n, attrs=("j", "k"), seed=4)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
    expr = Sum("j", Var("A") * Var("B"))
    out = OutputSpec(("i", "k"), ("dense", "dense"), (n, n))
    tensors = {"A": A, "B": B}

    vec = compile_kernel(
        expr, ctx, tensors, out, backend="python", name="bench_mm_vec"
    ).bind(tensors)
    sca = compile_kernel(
        expr, ctx, tensors, out, backend="python", vectorize=False,
        name="bench_mm_sca",
    ).bind(tensors)

    vec.run_only(), sca.run_only()
    assert np.allclose(vec.env["out_vals"], sca.env["out_vals"])

    t_vec, t_sca = _best(vec.run_only, reps=3), _best(sca.run_only, reps=3)
    assert t_sca >= 1.5 * t_vec, f"scalar {t_sca * 1e3:.2f}ms vs vec {t_vec * 1e3:.2f}ms"


def test_opt_level_scalar_runtime():
    # passes should pay for themselves even without vectorization
    ctx, expr, out, tensors = _spmv_workload(n=1000, density=0.05)
    k0 = compile_kernel(
        expr, ctx, tensors, out, backend="python", opt_level=0,
        name="bench_opt0",
    ).bind(tensors)
    k2 = compile_kernel(
        expr, ctx, tensors, out, backend="python", vectorize=False,
        name="bench_opt2",
    ).bind(tensors)

    k0.run_only(), k2.run_only()
    assert np.allclose(k0.env["out_vals"], k2.env["out_vals"])

    t0, t2 = _best(k0.run_only), _best(k2.run_only)
    # loose bound: the optimized loop must not regress
    assert t2 <= 1.15 * t0, f"opt2 {t2 * 1e3:.2f}ms vs opt0 {t0 * 1e3:.2f}ms"
