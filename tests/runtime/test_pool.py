"""The persistent worker pool: warm-up, reuse, health, eviction,
shutdown, and the ``pool`` shard executor end to end.

Fault-side behavior (crashes, deadlines, typed errors crossing the
pipe) lives in ``tests/faults/test_pool_faults.py``; this file covers
the happy-path lifecycle and the zero-copy dispatch plumbing.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

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
    return pool.run_call(key, refs, dims, None, False, None, **kw)


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
    assert small_pool.stats.crashes == 0


def test_register_recipe_prewarms_idle_workers(small_pool):
    """With warming on (the default), registering a recipe broadcasts
    it to every idle worker before any call lands."""
    kernel, _tensors = spmv_kernel()
    key = pool_mod.pool_key(kernel)
    small_pool.register_recipe(key, kernel.recipe)
    assert all(key in w.warmed for w in small_pool._idle)


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


def test_snapshot_reports_pool_and_breaker(small_pool):
    kernel, tensors = spmv_kernel()
    _call(small_pool, kernel, tensors)
    snap = small_pool.snapshot()
    assert snap["max_workers"] == 2
    assert snap["idle"] + snap["busy"] == 2
    assert snap["recipes"] == 1
    assert snap["stats"].calls == 1
    assert isinstance(snap["breaker"], dict)


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
    """In process, pooled, forked and durable runs all read an exported
    operand from the segment's pages — bit for bit what the heap copy
    gave — and ``/dev/shm`` is left as found."""
    from repro.runtime.supervisor import run_supervised

    def shm_entries():
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro_"))
    before = shm_entries()
    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))
    monkeypatch.setenv("REPRO_POOL", "0")  # supervised = a fork
    kernel, tensors = spmv_kernel(n=64, name="pool_moved_spmv")
    want = kernel.run(tensors, parallel=False).vals.copy()
    for t in tensors.values():
        assert shm.export_tensor(t, 0) is not None
    routes = {
        "in process": kernel.run(tensors, parallel=False),
        "pooled": pool_mod.run_pooled(kernel, tensors),
        "forked": run_supervised(kernel, tensors),
        "durable": kernel.run_sharded(tensors, executor="pool", shards=3,
                                      workers=2, durable=True),
    }
    for route, got in routes.items():
        assert np.array_equal(got.vals, want), route
    pool_mod.shutdown_shared_pool()
    shm.release_all_exports()
    assert shm_entries() == before


def test_run_batch_pool_executor():
    from repro.runtime.api import run_batch

    kernel, tensors = spmv_kernel(name="pool_batch_spmv")
    runs = [tensors] * 4
    serial = run_batch(kernel, runs, executor="serial")
    pooled = run_batch(kernel, runs, executor="pool", workers=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


def test_pooled_supervised_routing(monkeypatch, forkless=False):
    """``REPRO_POOL=1`` routes supervised runs through the pool; the
    result matches the in-process run and the pool records the call."""
    import multiprocessing

    from repro.runtime.supervisor import can_supervise, run_supervised

    monkeypatch.setenv("REPRO_POOL", "0" if forkless else "1")
    if forkless:
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not can_supervise(object())
    pool_mod.shutdown_shared_pool()
    kernel, tensors = spmv_kernel(name="pool_sup_spmv")
    assert can_supervise(kernel)
    direct = kernel._run_single(tensors)
    pooled = run_supervised(kernel, tensors)
    assert direct.to_dict() == pooled.to_dict()
    pool = pool_mod.get_shared_pool()
    assert pool.stats.calls >= 1
    if forkless:
        assert pool._ctx.get_start_method() == "spawn"
    pool_mod.shutdown_shared_pool()


def test_forkless_platform_supervises_in_the_pool(monkeypatch):
    """A platform that cannot fork has no other supervised route:
    whatever ``REPRO_POOL`` says, the run goes to (spawned) workers."""
    test_pooled_supervised_routing(monkeypatch, forkless=True)


def test_pooled_supervised_honors_mem_mb_pin(monkeypatch):
    """A per-call ``mem_mb`` override pins the fork path (pool rlimits
    are fixed at spawn) — the pool must NOT serve the call."""
    from repro.runtime.policy import resolve

    monkeypatch.setenv("REPRO_POOL", "1")
    kernel, _tensors = spmv_kernel(name="pool_sup_mem")
    assert resolve(kernel, supervised=True).pool_route is True
    assert resolve(kernel, supervised=True, mem_mb=256).pool_route is False


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
