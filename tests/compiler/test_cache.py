"""The two-tier kernel build cache: counters, speedup, disk round-trip.

Each test swaps in a fresh :class:`KernelCache` (pointed at a tmp dir)
for the process-wide singleton so counters are deterministic and no
state leaks between tests."""

import gc
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
import weakref

import numpy as np
import pytest

from repro import config
from repro.compiler import cache as cache_mod
from repro.compiler import codegen_c
from repro.compiler import build as build_mod
from repro.compiler.cache import MEMO_ENTRIES, KernelCache, kernel_cache_key
from repro.compiler.formats import Param
from repro.compiler.ir import TINT, EVar, PSort
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime.policy import resolve
from repro.semirings import INT

from tests.conftest import sorting_programs

N = 12
SCHEMA = Schema.of(i=range(N), j=range(N))

requires_cc = pytest.mark.skipif(
    shutil.which(config.get("REPRO_GCC")) is None,
    reason="configured C toolchain required",
)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    kc = KernelCache(cache_dir=tmp_path)
    monkeypatch.setattr(build_mod, "kernel_cache", kc)
    return kc


def _spmv():
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
    rng = np.random.default_rng(11)
    A = Tensor.from_entries(
        ("i", "j"), ("dense", "sparse"), (N, N),
        {(i, j): int(rng.integers(1, 9)) for i in range(N) for j in range(N)
         if rng.random() < 0.5},
        INT,
    )
    v = Tensor.from_entries(
        ("j",), ("dense",), (N,), {(j,): int(rng.integers(1, 9)) for j in range(N)}, INT
    )
    expr = Sum("j", Var("A") * Var("v"))
    out = OutputSpec(("i",), ("dense",), (N,))
    return ctx, expr, out, {"A": A, "v": v}


def test_memory_hit_counters(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    k1 = compile_kernel(expr, ctx, tensors, out, backend="python", name="cache_k")
    assert fresh_cache.stats.misses == 1 and fresh_cache.stats.hits == 0
    k2 = compile_kernel(expr, ctx, tensors, out, backend="python", name="cache_k")
    assert fresh_cache.stats.memory_hits == 1 and fresh_cache.stats.misses == 1
    assert k2 is k1  # the memo returns the identical kernel object


def test_different_configs_do_not_collide(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    base = dict(backend="python", name="cache_k")
    k1 = compile_kernel(expr, ctx, tensors, out, **base)
    k2 = compile_kernel(expr, ctx, tensors, out, opt_level=0, **base)
    k3 = compile_kernel(expr, ctx, tensors, out, backend="interp", name="cache_k")
    assert fresh_cache.stats.misses == 3
    assert k1 is not k2 and k1 is not k3
    r1, r2, r3 = (k.run(tensors).vals for k in (k1, k2, k3))
    assert np.array_equal(r1, r2) and np.array_equal(r1, r3)


def test_cache_disabled_per_builder(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    compile_kernel(expr, ctx, tensors, out, backend="python", cache=False, name="nc")
    compile_kernel(expr, ctx, tensors, out, backend="python", cache=False, name="nc")
    assert fresh_cache.stats.hits == 0 and fresh_cache.stats.misses == 0


def test_warm_rebuild_at_least_10x_faster(fresh_cache):
    ctx, expr, out, tensors = _spmv()

    t0 = time.perf_counter()
    compile_kernel(expr, ctx, tensors, out, backend="python", name="warm_k")
    cold = time.perf_counter() - t0
    assert fresh_cache.stats.misses == 1

    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        compile_kernel(expr, ctx, tensors, out, backend="python", name="warm_k")
    warm = (time.perf_counter() - t0) / reps
    assert fresh_cache.stats.memory_hits == reps
    assert cold >= 10 * warm, f"cold {cold * 1e3:.2f}ms vs warm {warm * 1e3:.3f}ms"


def test_disk_payload_round_trip(fresh_cache, tmp_path, monkeypatch):
    ctx, expr, out, tensors = _spmv()
    k1 = compile_kernel(expr, ctx, tensors, out, backend="python", name="disk_k")
    assert list(tmp_path.glob("kmeta_*.json"))

    # a second cache over the same directory simulates a fresh process:
    # the in-memory memo is empty, the payload must be found on disk
    kc2 = KernelCache(cache_dir=tmp_path)
    monkeypatch.setattr(build_mod, "kernel_cache", kc2)
    k2 = compile_kernel(expr, ctx, tensors, out, backend="python", name="disk_k")
    assert kc2.stats.disk_hits == 1 and kc2.stats.misses == 0
    assert k2.source == k1.source
    assert np.array_equal(k2.run(tensors).vals, k1.run(tensors).vals)

    # a process of another format version rebuilds, it does not load:
    # what was stored under one CACHE_VERSION is invisible to the next
    kc3 = KernelCache(cache_dir=tmp_path)
    monkeypatch.setattr(build_mod, "kernel_cache", kc3)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION - 1)
    compile_kernel(expr, ctx, tensors, out, backend="python", name="disk_k")
    assert kc3.stats.disk_hits == 0 and kc3.stats.misses == 1


def test_disk_tier_can_be_disabled(fresh_cache, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", "0")
    ctx, expr, out, tensors = _spmv()
    compile_kernel(expr, ctx, tensors, out, backend="python", name="nodisk_k")
    assert not list(tmp_path.glob("kmeta_*.json"))


def test_cache_dir_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "alt"))
    assert cache_mod.default_cache_dir() == tmp_path / "alt"
    kc = KernelCache()
    assert kc.cache_dir() == tmp_path / "alt"


def test_key_is_canonical():
    ctx, expr, out, tensors = _spmv()
    # the key must not depend on input-dict ordering
    from repro.compiler.formats import TensorInput
    from repro.compiler.scalars import scalar_ops_for

    ops = scalar_ops_for(INT)
    specs = {
        "A": TensorInput("A", ("i", "j"), ("dense", "sparse"), ops),
        "v": TensorInput("v", ("j",), ("dense",), ops),
    }
    kwargs = dict(
        semiring=INT, backend="python", search="linear", locate=True,
        opt_level=2, vectorize=True, name="k", attr_dims={"i": N, "j": N},
    )
    k1 = kernel_cache_key(expr, specs, out, **kwargs)
    k2 = kernel_cache_key(expr, dict(reversed(list(specs.items()))), out, **kwargs)
    assert k1 == k2
    k3 = kernel_cache_key(expr, specs, out, **{**kwargs, "opt_level": 0})
    assert k3 != k1


# ----------------------------------------------------------------------
# tier 1 is bounded; a shared object lives as long as a kernel can call it
# ----------------------------------------------------------------------
def _mapped(name):
    """The kernel ``name``'s shared objects mapped into this process."""
    with open("/proc/self/maps") as maps:
        return {line.split()[-1] for line in maps
                if f"/{name}_" in line and line.rstrip().endswith(".so")}


def test_memo_keeps_the_most_recent_entries(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    for i in range(MEMO_ENTRIES + 8):
        compile_kernel(expr, ctx, tensors, out, backend="python", name=f"lru_{i}")
    assert len(fresh_cache._memo) == MEMO_ENTRIES
    assert fresh_cache.stats.misses == MEMO_ENTRIES + 8
    # past the bound a miss is a disk-tier restore, not a compile
    compile_kernel(expr, ctx, tensors, out, backend="python", name="lru_0")
    assert fresh_cache.stats.disk_hits == 1
    assert fresh_cache.stats.misses == MEMO_ENTRIES + 8


def test_lookup_protects_an_entry_from_eviction(tmp_path):
    kc = KernelCache(cache_dir=tmp_path)
    for i in range(MEMO_ENTRIES):
        kc.store(f"k{i}", f"kernel {i}")
    assert kc.lookup("k0") == "kernel 0"
    kc.store("new", "kernel new")
    assert len(kc._memo) == MEMO_ENTRIES
    assert kc.lookup("k0") == "kernel 0"
    assert kc.lookup("k1") is None


@requires_cc
def test_evicted_c_kernel_a_caller_holds_still_runs(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    held = compile_kernel(expr, ctx, tensors, out, backend="c", name="held_c")
    for i in range(MEMO_ENTRIES):
        fresh_cache.store(f"filler{i}", object())
    assert fresh_cache.lookup(held.cache_key) is None
    gc.collect()
    twin = compile_kernel(expr, ctx, tensors, out, backend="python", name="held_c")
    assert np.array_equal(held.run(tensors).vals, twin.run(tensors).vals)


@requires_cc
def test_shared_object_is_unloaded_with_its_last_kernel(fresh_cache):
    ctx, expr, out, tensors = _spmv()
    # a C kernel's .so is loaded when its build is joined
    held = compile_kernel(expr, ctx, tensors, out, backend="c", name="so_held").join()
    dropped = compile_kernel(expr, ctx, tensors, out, backend="c", name="so_dropped").join()
    assert _mapped("so_held") and _mapped("so_dropped")
    fresh_cache.clear()
    del dropped
    gc.collect()
    assert not _mapped("so_dropped")
    assert _mapped("so_held")
    assert held.run(tensors).vals.any()


_EXIT_INSIDE_A_KERNEL = textwrap.dedent("""
    import threading, time
    from repro.compiler.build import compile_kernel
    from repro.compiler.kernel import OutputSpec
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.workloads import dense_matrix

    n = 240
    tensors = {"A": dense_matrix(n, n, ("i", "j"), seed=1),
               "B": dense_matrix(n, n, ("j", "k"), seed=2)}
    ctx = TypeContext(Schema.of(i=None, j=None, k=None),
                      {"A": {"i", "j"}, "B": {"j", "k"}})
    kernel = compile_kernel(Sum("j", Var("A") * Var("B")), ctx, tensors,
                            OutputSpec(("i", "k"), ("dense", "dense"), (n, n)),
                            backend="c", name="exit_mid_call")
    calling = threading.Event()

    def spin():
        calling.set()
        while True:
            kernel.run(tensors, parallel=False, supervised=False)

    threading.Thread(target=spin, daemon=True).start()
    calling.wait()
    time.sleep(0.2)
""")


@requires_cc
def test_exit_while_a_daemon_thread_is_inside_a_kernel(tmp_path):
    """The interpreter exits while a daemon thread runs C code of a
    loaded kernel: its shared object must stay mapped to the end."""
    env = dict(os.environ, REPRO_KERNEL_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _EXIT_INSIDE_A_KERNEL],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


# ----------------------------------------------------------------------
# the sort runtime: one per cache dir, linked by every kernel that sorts
# ----------------------------------------------------------------------
def run_sorting_kernels():
    """Build both :func:`sorting_programs` on the C backend and run them;
    their outputs as JSON-ready entry lists."""
    results = []
    for name, expr, ctx, tensors, out in sorting_programs():
        kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name=f"rt_{name}")
        entries = kernel.run(tensors, parallel=False, supervised=False).to_dict()
        results.append([[[int(c) for c in idx], float(v)] for idx, v in sorted(entries.items())])
    return results


_RESTORE_SORTING_KERNELS = textwrap.dedent("""
    import json, subprocess
    from repro import config
    gcc, popen = [], subprocess.Popen
    def counted(cmd, *args, **kw):
        gcc.extend(cmd[:1] if cmd[0] == config.get("REPRO_GCC") else [])
        return popen(cmd, *args, **kw)
    subprocess.Popen = counted
    from repro.compiler.cache import kernel_cache
    from tests.compiler.test_cache import run_sorting_kernels
    results = run_sorting_kernels()
    print(json.dumps({"gcc": len(gcc), "disk_hits": kernel_cache.stats.disk_hits,
                      "results": results}))
""")


@requires_cc
def test_sorting_kernels_share_one_runtime_per_cache_dir(fresh_cache, tmp_path,
                                                         monkeypatch, gcc_runs):
    """Two kernels that sort, built into one fresh directory, run gcc
    three times — the runtime once, then each kernel — and leave one
    runtime beside them.  A fresh process restores both without gcc,
    and rebuilds a deleted runtime without quarantining a kernel."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(codegen_c, "_CACHE", weakref.WeakValueDictionary())
    want = run_sorting_kernels()
    assert len(gcc_runs) == 3
    [runtime] = tmp_path.glob("repro_rt_*.c")
    assert "void _sort_i64(int64_t* a" in runtime.read_text()
    kernels = list(tmp_path.glob("rt_*.c"))
    assert len(kernels) == 2
    assert all(codegen_c._SORT_PROTO in k.read_text() and "at[" not in k.read_text()
               for k in kernels)

    env = dict(os.environ, REPRO_KERNEL_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))

    def restore():
        proc = subprocess.run([sys.executable, "-c", _RESTORE_SORTING_KERNELS],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.splitlines()[-1])

    assert restore() == {"gcc": 0, "disk_hits": 2, "results": want}
    runtime.with_suffix(".so").unlink()
    assert restore() == {"gcc": 1, "disk_hits": 2, "results": want}
    assert runtime.with_suffix(".so").exists()
    assert not list(tmp_path.glob("*.corrupt"))


@requires_cc
def test_sanitized_build_links_its_own_runtime(tmp_path, monkeypatch):
    """``REPRO_SANITIZE`` is part of the runtime's identity as it is of
    a kernel's: an instrumented kernel links an instrumented sort."""
    params = [Param("n", "scalar", TINT), Param("a", "array", TINT)]
    source = codegen_c.emit_kernel_source("san_sort", params, [], PSort("a", EVar("n")))
    built = [codegen_c.CKernel(source, "san_sort", params, cache_dir=str(tmp_path))]
    monkeypatch.setenv("REPRO_SANITIZE", "undefined")
    built.append(codegen_c.CKernel(source, "san_sort", params, cache_dir=str(tmp_path)))
    assert len(list(tmp_path.glob("repro_rt_*.so"))) == 2
    assert len(list(tmp_path.glob("san_sort_*.so"))) == 2
    for kernel in built:
        env = {"n": 40, "a": np.concatenate([np.arange(40)[::-1], np.zeros(40)]).astype(np.int64)}
        kernel(env)
        assert env["a"][:40].tolist() == list(range(40))


@pytest.mark.parametrize("backend", [pytest.param("c", marks=requires_cc), "python"])
def test_a_restored_kernel_runs_supervised_only_when_asked(fresh_cache, tmp_path,
                                                          monkeypatch, backend):
    """A sparse output's kernel builds, stores and restores from its
    payload alone, and the restored kernel runs supervised only when
    asked: no verdict of the build travels with it."""
    monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
    # a CSR x CSR matmul: every store into its output is capacity-managed
    _, expr, ctx, tensors, out = sorting_programs()[0]
    built = compile_kernel(expr, ctx, tensors, out, backend=backend, name="restored")
    assert len(list(tmp_path.glob("kmeta_*.json"))) == 1
    fresh_cache.clear()
    restored = compile_kernel(expr, ctx, tensors, out, backend=backend, name="restored")
    assert fresh_cache.stats.disk_hits == 1 and restored is not built
    assert restored.run(tensors).to_dict() == built.execute(tensors).to_dict()
    assert not resolve(restored).supervised
    assert resolve(restored, supervised=True).supervised
