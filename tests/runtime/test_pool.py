"""The persistent worker pool: warm-up, reuse, health, eviction,
shutdown, and the ``pool`` shard executor end to end.

Fault-side behavior (crashes, deadlines, typed errors crossing the
pipe) lives in ``tests/faults/test_pool_faults.py``; this file covers
the happy-path lifecycle and the zero-copy dispatch plumbing.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pytest

from repro import config
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

from tests.conftest import sorting_programs

N = 32


def spmv_kernel(n=N, seed=11, name="pool_spmv"):
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=seed)
    x = dense_vector(n, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        semiring=FLOAT, backend="python", name=name)
    return kernel, {"A": A, "x": x}


def expected(tensors, n=N):
    A, x = tensors["A"], tensors["x"]
    dense = np.zeros((n, n))
    pos, crd, vals = A.pos[1], A.crd[1], A.vals
    for i in range(n):
        for p in range(int(pos[i]), int(pos[i + 1])):
            dense[i, int(crd[p])] = vals[p]
    return dense @ np.asarray(x.vals)


@pytest.fixture
def small_pool():
    pool = pool_mod.WorkerPool(2)
    yield pool
    pool.shutdown()


def _call(pool, kernel, tensors, **kw):
    key = pool_mod.pool_key(kernel)
    pool.register_recipe(key, kernel.recipe)
    refs = {name: shm.describe_tensor(t, shm.export_tensor(t, 0))
            for name, t in tensors.items()}
    dims = tuple(kernel.output.dims)
    return pool.run_call(key, refs, dims, None, **kw)


def test_run_call_returns_correct_result(small_pool):
    kernel, tensors = spmv_kernel()
    result, seconds, pid = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    assert seconds >= 0
    assert pid != os.getpid()


def test_kernel_is_warmed_once_and_stays_resident(small_pool):
    """After the first call the key is marked warm on the worker; the
    recipe is not re-shipped, and repeated calls keep succeeding."""
    kernel, tensors = spmv_kernel()
    key = pool_mod.pool_key(kernel)
    _call(small_pool, kernel, tensors)
    warmed = {w.wid for w in small_pool._idle if key in w.warmed}
    assert warmed, "no worker recorded the key as warm"
    for _ in range(3):
        result, _s, _p = _call(small_pool, kernel, tensors)
        np.testing.assert_allclose(np.asarray(result.vals),
                                   expected(tensors))
    assert small_pool.stats.calls == 4
    assert small_pool.stats.replaced == 0


def test_register_recipe_prewarms_idle_workers(small_pool):
    """With warming on (the default), registering a recipe broadcasts
    it to every idle worker before any call lands."""
    kernel, _tensors = spmv_kernel()
    key = pool_mod.pool_key(kernel)
    small_pool.register_recipe(key, kernel.recipe)
    assert all(key in w.warmed for w in small_pool._idle)


def test_worker_kernel_table_is_bounded(monkeypatch):
    """A worker keeps the ``MEMO_ENTRIES`` most recently used kernels,
    and the parent's mirror evicts alike: a key the worker dropped
    ships its recipe again instead of failing the call.  Forked, so the
    worker inherits the patched bound (a spawned one re-imports 64)."""
    from repro.compiler import cache

    monkeypatch.setattr(cache, "MEMO_ENTRIES", 2)
    pool = pool_mod.WorkerPool(1, start_method="fork")
    try:
        built = [spmv_kernel(seed=11 + k, name=f"pool_lru_{k}")
                 for k in range(3)]
        keys = [pool_mod.pool_key(kernel) for kernel, _ in built]
        assert len(set(keys)) == 3
        for kernel, tensors in built + built[:1]:
            result, _s, _p = _call(pool, kernel, tensors)
            np.testing.assert_allclose(np.asarray(result.vals),
                                       expected(tensors))
        w, = pool._idle
        assert list(w.warmed) == [keys[2], keys[0]]
        w.conn.send(("ping", w.wid))
        assert w.conn.recv()[3] == 2, "the worker holds more kernels"
    finally:
        pool.shutdown()


def test_pool_key_is_content_addressed():
    k1, _ = spmv_kernel(seed=11, name="pool_key_a")
    k2, _ = spmv_kernel(seed=11, name="pool_key_a")
    assert pool_mod.pool_key(k1) == pool_mod.pool_key(k2)

    class NoRecipe:
        name = "bare"
        cache_key = None
        recipe = None

    with pytest.raises(pool_mod.PoolUnavailableError):
        pool_mod.pool_key(NoRecipe())


def test_health_check_replaces_dead_idle_worker(small_pool):
    victim = small_pool._idle[0]
    victim.proc.kill()
    victim.proc.join(5.0)
    report = small_pool.health_check()
    assert report[victim.wid] is False
    assert small_pool.stats.replaced == 1
    # the pool is whole again and still serves calls
    assert len(small_pool._idle) == 2
    kernel, tensors = spmv_kernel()
    result, _s, _p = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))


def test_acquire_skips_and_replaces_dead_worker(small_pool):
    """A worker that died while idle is never handed to a caller."""
    for w in list(small_pool._idle):
        w.proc.kill()
        w.proc.join(5.0)
    kernel, tensors = spmv_kernel()
    result, _s, _p = _call(small_pool, kernel, tensors)
    np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    assert small_pool.stats.replaced >= 1


def test_idle_ttl_eviction(small_pool, monkeypatch):
    """Workers idle beyond the TTL are retired — but one always stays
    warm."""
    monkeypatch.setenv("REPRO_POOL_IDLE_TTL", "0.01")
    kernel, tensors = spmv_kernel()
    _call(small_pool, kernel, tensors)
    time.sleep(0.05)
    _call(small_pool, kernel, tensors)  # release path runs the sweep
    assert small_pool.stats.evicted >= 1
    assert len(small_pool._idle) >= 1


def test_grow_only_raises(small_pool):
    small_pool.grow(3)
    assert small_pool.max_workers == 3
    assert len(small_pool._idle) == 3
    small_pool.grow(1)  # never shrinks
    assert small_pool.max_workers == 3


def test_shutdown_is_idempotent_and_final(small_pool):
    procs = [w.proc for w in small_pool._idle]
    small_pool.shutdown()
    small_pool.shutdown()
    assert all(not p.is_alive() for p in procs)
    with pytest.raises(pool_mod.PoolUnavailableError):
        small_pool._acquire(timeout=0.1)


def test_shared_pool_singleton_grows_not_duplicates():
    p1 = pool_mod.get_shared_pool(1)
    p2 = pool_mod.get_shared_pool(2)
    assert p1 is p2
    assert p2.max_workers == 2
    pool_mod.shutdown_shared_pool()
    p3 = pool_mod.get_shared_pool(1)
    assert p3 is not p1
    pool_mod.shutdown_shared_pool()


# ----------------------------------------------------------------------
# the pool executor end to end
# ----------------------------------------------------------------------
def test_run_sharded_pool_executor_matches_serial():
    kernel, tensors = spmv_kernel(name="pool_shard_spmv")
    serial = kernel.run_sharded(tensors, executor="serial", shards=3)
    pooled = kernel.run_sharded(tensors, executor="pool", shards=3,
                                workers=2)
    assert serial.to_dict() == pooled.to_dict()


def test_run_sharded_pool_contracted_split():
    """⊕-merge over pool shards: dot product, contracted split."""
    from repro.data import Tensor

    m = 40
    u = Tensor.from_entries(("j",), ("sparse",), (m,),
                            {(j,): float(j % 5 + 1)
                             for j in range(0, m, 3)}, FLOAT)
    v = Tensor.from_entries(("j",), ("dense",), (m,),
                            {(j,): float(j + 1) for j in range(m)}, FLOAT)
    ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
        semiring=FLOAT, backend="python", name="pool_dot")
    tensors = {"u": u, "v": v}
    serial = kernel.run_sharded(tensors, executor="serial", shards=4)
    pooled = kernel.run_sharded(tensors, executor="pool", shards=4,
                                workers=2)
    assert serial == pooled


def test_no_operand_array_travels_inline(monkeypatch):
    """Operands move to shared memory before they are sliced, so every
    shard of every call — the first included — ships byte windows; only
    the small rebased outer ``pos`` arrays ride the pipe."""
    threshold = 1024
    monkeypatch.setenv("REPRO_SHM_THRESHOLD", str(threshold))
    sent = []
    run_call = pool_mod.WorkerPool.run_call

    def spy(self, key, refs, *args, **kw):
        sent.extend(r for tref in refs.values() for r in tref.refs())
        return run_call(self, key, refs, *args, **kw)
    monkeypatch.setattr(pool_mod.WorkerPool, "run_call", spy)
    kernel, tensors = spmv_kernel(n=64, name="pool_windows_spmv")
    serial = kernel.run_sharded(tensors, executor="serial", shards=3)
    for _call_no in range(2):
        del sent[:]
        pooled = kernel.run_sharded(tensors, executor="pool", shards=3,
                                    workers=2)
        assert np.array_equal(pooled.vals, serial.vals)
        windows = [r for r in sent if r.offset >= 0]
        assert len(windows) >= 3 * 2  # vals + crd of A per shard, and x
        assert all(r.data.nbytes < threshold for r in sent if r.offset < 0)


def test_exported_operands_agree_on_every_route(tmp_path, monkeypatch):
    """In process, pooled and durable runs all read an exported operand
    from the segment's pages — bit for bit what the heap copy gave — and
    ``/dev/shm`` is left as found."""
    def shm_entries():
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro_"))
    before = shm_entries()
    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))
    kernel, tensors = spmv_kernel(n=64, name="pool_moved_spmv")
    want = kernel.run(tensors, parallel=False).vals.copy()
    for t in tensors.values():
        assert shm.export_tensor(t, 0) is not None
    routes = {
        "in process": kernel.run(tensors, parallel=False),
        "pooled": pool_mod.run_supervised(kernel, tensors),
        "durable": kernel.run_sharded(tensors, executor="pool", shards=3,
                                      workers=2, durable=True),
    }
    for route, got in routes.items():
        assert np.array_equal(got.vals, want), route
    pool_mod.shutdown_shared_pool()
    shm.release_all_exports()
    assert shm_entries() == before


@pytest.mark.parametrize("route", ["run_sharded", "run_pooled"])
def test_operands_are_exported_before_the_pool_forks(monkeypatch, route):
    """A worker forked before an operand moved would map its heap copy
    for life: the first pooled call exports, then opens the pool."""
    from repro.runtime.executor import shutdown_shared_runtime

    monkeypatch.setenv("REPRO_SHM_THRESHOLD", "0")
    shutdown_shared_runtime()   # no pool, no cached pool executor
    kernel, tensors = spmv_kernel(name=f"pool_export_first_{route}")
    seen = []
    init = pool_mod.WorkerPool.__init__

    def spy(self, *args, **kw):
        seen.append([getattr(t, shm._EXPORT_ATTR, None)
                     for t in tensors.values()])
        init(self, *args, **kw)
    monkeypatch.setattr(pool_mod.WorkerPool, "__init__", spy)
    if route == "run_sharded":
        got = kernel.run_sharded(tensors, executor="pool", shards=3,
                                 workers=2)
    else:
        got = pool_mod.run_pooled(kernel, tensors)
    np.testing.assert_allclose(np.asarray(got.vals), expected(tensors))
    assert len(seen) == 1 and all(e is not None for e in seen[0])
    shutdown_shared_runtime()


def test_pooled_supervised_routing(monkeypatch, forkless=False):
    """A supervised run goes to a pool worker.  A process that owns no
    pool keeps nothing resident: under fork the run gets a one-worker
    pool that is gone when it returns; a platform that must spawn opens
    the shared pool at one worker instead.  Once the shared pool is
    open, supervised runs use it.  Every result matches the in-process
    run."""
    import multiprocessing

    if forkless:
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        monkeypatch.setenv("REPRO_MP_START", "fork")
    pids = []
    run_call = pool_mod.WorkerPool.run_call

    def recording(self, *args, **kw):
        reply = run_call(self, *args, **kw)
        pids.append(reply[2])
        return reply

    monkeypatch.setattr(pool_mod.WorkerPool, "run_call", recording)
    pool_mod.shutdown_shared_pool()
    kernel, tensors = spmv_kernel(name="pool_sup_spmv")
    direct = kernel.execute(tensors)
    supervised = kernel.run(tensors, parallel=False, supervised=True)
    assert direct.to_dict() == supervised.to_dict()
    assert len(pids) == 1 and pids[0] != os.getpid()
    assert pool_mod.shared_pool_open() is forkless
    if not forkless:
        with pytest.raises(ProcessLookupError):  # joined on return
            os.kill(pids[0], 0)
    pool = pool_mod.get_shared_pool()
    calls = pool.stats.calls
    pooled = pool_mod.run_supervised(kernel, tensors)
    assert direct.to_dict() == pooled.to_dict()
    assert pool.stats.calls == calls + 1
    if forkless:
        # sized from the call, not the CPU count
        assert pool._ctx.get_start_method() == "spawn"
        assert pool.max_workers == 1
    pool_mod.shutdown_shared_pool()


def test_forkless_platform_supervises_in_the_pool(monkeypatch):
    """A platform that cannot fork supervises on spawned workers, which
    rebuild the kernel from its recipe."""
    test_pooled_supervised_routing(monkeypatch, forkless=True)


@pytest.mark.skipif(shutil.which(config.get("REPRO_GCC")) is None,
                    reason="C toolchain required")
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sorting_kernel_runs_pooled_as_in_process(start_method):
    """A kernel that sorts links the sort runtime: a forked worker
    inherits it loaded, a spawned one loads it from beside the kernel's
    ``.so`` — either way bit-equal to the in-process run."""
    name, expr, ctx, tensors, out = sorting_programs()[0]
    kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name=f"pool_sort_{name}")
    assert kernel.c_backed
    want = kernel.run(tensors, parallel=False, supervised=False)
    pool = pool_mod.WorkerPool(1, start_method=start_method)
    try:
        got, _seconds, pid = _call(pool, kernel, tensors)
    finally:
        pool.shutdown()
    assert pid != os.getpid()
    assert np.array_equal(got.pos[1], want.pos[1])
    assert np.array_equal(got.crd[1], want.crd[1])
    assert np.array_equal(got.vals, want.vals)


# ----------------------------------------------------------------------
# fork-started workers (the default wherever the platform can fork)
# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs a fork-capable platform")


from repro.runtime.executor import _FORK_LOCKS  # noqa: E402

FORK_LOCKS = [f"{module}:{name}" for module, names in _FORK_LOCKS.items()
              for name in names]


def test_every_module_level_lock_is_in_the_fork_table():
    """The at-fork handler can only re-create the locks it is told of."""
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    found = {
        f"repro.{'.'.join(path.relative_to(root).with_suffix('').parts)}:{name}"
        for path in root.rglob("*.py")
        for name in re.findall(r"^(\w+) = threading\.R?Lock\(\)",
                               path.read_text(), re.M)
    }
    assert len(found) >= 7 and found <= set(FORK_LOCKS)


@needs_fork
@pytest.mark.parametrize("lock", FORK_LOCKS)
def test_forked_worker_gets_fresh_locks(lock):
    """A module-level lock another thread holds at fork time would stay
    held for ever in the worker: each one is made afresh there, so the
    worker warms, runs (operands attached from shared memory) and
    leaves without ever waiting for it."""
    import importlib
    import threading

    module, _, path = lock.partition(":")
    owner = importlib.import_module(module)
    *attrs, name = path.split(".")
    for attr in attrs:
        owner = getattr(owner, attr)
    forked, held = threading.Event(), threading.Event()

    def hold():
        with getattr(owner, name):
            held.set()
            forked.wait(20)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(5)
        pool = pool_mod.WorkerPool(1, start_method="fork")
    finally:
        forked.set()
        holder.join(5)
    try:
        (w,) = pool._idle
        kernel, tensors = spmv_kernel(name="pool_lock_spmv")
        result, _s, pid = _call(pool, kernel, tensors, deadline=5.0,
                                threshold=0)
        assert pid == w.proc.pid
        np.testing.assert_allclose(np.asarray(result.vals), expected(tensors))
    finally:
        t0 = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - t0 < 0.5
    assert w.proc.exitcode == 0


@needs_fork
def test_second_forked_pool_shuts_down_at_once(monkeypatch):
    """The second shared pool of a process is forked inside
    ``get_shared_executor`` — under ``_SHARED_LOCK``, with the runtime's
    exit hook registered: its workers must neither inherit the lock
    held nor run the parent's hook when they leave."""
    from repro.runtime.executor import (
        get_shared_executor, shutdown_shared_runtime,
    )

    monkeypatch.setenv("REPRO_MP_START", "fork")
    shutdown_shared_runtime()   # an executor an earlier test left cached
    for _round in range(2):
        ex = get_shared_executor("pool", 2)
        procs = [w.proc for w in ex.pool._idle]
        assert len(procs) == 2
        t0 = time.monotonic()
        shutdown_shared_runtime()
        assert time.monotonic() - t0 < 0.5
        assert [p.exitcode for p in procs] == [0, 0]


@needs_fork
def test_fork_starts_from_a_trimmed_heap(monkeypatch):
    """Every ``os.fork`` gives the parent's free heap back first: a child
    maps the heap as it is at the fork, and a later trim in the parent
    cannot free a page the child still maps."""
    trims = []
    monkeypatch.setattr(shm, "_malloc_trim", trims.append)
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert trims == [0]
