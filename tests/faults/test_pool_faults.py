"""Fault injection against the persistent worker pool.

The pool rebuilds kernels from their *recipes* inside the workers, so
the in-memory sabotage of ``crash_kernels`` never crosses the boundary
(that is a feature — see ``pin_fork_supervision`` in
``test_supervisor.py``).  The honest injection vector here is the
recipe itself: :class:`FaultRecipe` builds a kernel that dies — or
raises — in a specific way *inside the worker*, exactly where a real
miscompiled kernel would.

The contract under test: a dead worker never kills the pool (the call
that observed the death gets its typed error, a replacement takes the
slot), typed errors cross the pipe with their metadata, the parent's
deadline kills a wedged worker, and no ``/dev/shm`` segment survives
any of it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import gc

import pytest

from repro.errors import CapacityError, KernelCrashError, KernelTimeoutError
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.runtime.supervisor import can_supervise, run_supervised

pytestmark = pytest.mark.skipif(
    not can_supervise(object()), reason="needs a fork-capable platform"
)


def shm_entries():
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro_"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    """Every fault in this file must leave /dev/shm as it found it."""
    before = shm_entries()
    yield
    shm.release_all_exports()
    gc.collect()
    assert shm_entries() == before


# ----------------------------------------------------------------------
# recipe-borne faults (picklable, importable from spawn-fresh workers)
# ----------------------------------------------------------------------
@dataclass
class FaultRecipe:
    """Builds a :class:`FaultKernel` — the pool's honest sabotage."""

    mode: str

    def build(self):
        while self.mode == "hang":      # a build that never returns
            time.sleep(0.005)
        if self.mode == "linger":       # a worker that never finishes exiting
            import threading

            threading.Thread(target=time.sleep, args=(3600,)).start()
        return FaultKernel(self.mode)


class FaultKernel:
    """Duck-typed kernel whose run dies (or raises) on demand."""

    output = None

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.name = f"fault_{mode}"
        self.recipe = FaultRecipe(mode)
        self.cache_key = f"fault:{mode}"

    def _run_single(self, tensors, capacity=None, *, auto_grow=False,
                    max_capacity=None):
        if self.mode == "sigsegv":
            ctypes.memset(8, 0, 1)  # store through the null page
        if self.mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if self.mode == "sleep":
            while True:
                time.sleep(0.005)
        if self.mode == "capacity":
            raise CapacityError("pooled output too small",
                                needed=128, capacity=64)
        return 42.0


def _call(pool, kernel, **kw):
    key = pool_mod.pool_key(kernel)
    pool.register_recipe(key, kernel.recipe)
    return pool.run_call(key, {}, None, None, False, None, **kw)


@pytest.fixture
def pool():
    p = pool_mod.WorkerPool(1)
    yield p
    p.shutdown()


# ----------------------------------------------------------------------
# death, deadline, typed errors
# ----------------------------------------------------------------------
def test_sigsegv_in_worker_is_typed_and_replaced(pool):
    with pytest.raises(KernelCrashError) as err:
        _call(pool, FaultKernel("sigsegv"))
    assert err.value.signal == signal.SIGSEGV
    assert pool.stats.crashes == 1
    assert pool.stats.replaced == 1
    # the replacement serves the next call — the pool survived
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_sigkill_mid_call_is_typed_and_replaced(pool):
    with pytest.raises(KernelCrashError) as err:
        _call(pool, FaultKernel("sigkill"))
    assert err.value.signal == signal.SIGKILL
    assert pool.stats.failures["fault:sigkill"] == 1
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_wedged_worker_misses_deadline(pool):
    with pytest.raises(KernelTimeoutError) as err:
        _call(pool, FaultKernel("sleep"), deadline=0.3)
    assert err.value.deadline == pytest.approx(0.3)
    assert pool.stats.timeouts == 1
    assert pool.stats.replaced == 1
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_hung_warm_up_is_bounded_and_replaces_the_worker(pool):
    """Warm-up waits under the pool lock, so it is bounded: a worker
    whose build never returns is killed and replaced, the call gets the
    typed error of a missed deadline, the recipe is dropped (it would
    wedge the replacement too), and the pool serves the next key."""
    t0 = time.monotonic()
    with pytest.raises(KernelTimeoutError) as err:
        pool.register_recipe("fault:hang", FaultRecipe("hang"), deadline=0.3)
    assert err.value.deadline == pytest.approx(0.3)
    assert time.monotonic() - t0 < 5.0
    assert pool.stats.timeouts == 1
    assert pool.stats.failures["fault:hang"] == 1
    assert pool.stats.replaced == 1
    assert "fault:hang" not in pool._recipes
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_wedged_at_exit_is_killed_within_the_join_bound(start_method):
    """``_retire`` waits 2 s for a polite exit and then kills: the wait
    is a bound only while the parent's view of the process sentinel is
    intact (a worker that closed its end of it reads as already gone,
    and the join behind that never returns)."""
    pool = pool_mod.WorkerPool(1, start_method=start_method)
    pool.register_recipe("fault:linger", FaultRecipe("linger"))
    proc = pool._idle[0].proc
    t0 = time.monotonic()
    pool.shutdown()
    assert 1.5 < time.monotonic() - t0 < 4.0
    assert proc.exitcode == -signal.SIGKILL


def test_typed_error_crosses_the_pipe_with_metadata(pool):
    with pytest.raises(CapacityError) as err:
        _call(pool, FaultKernel("capacity"))
    assert err.value.needed == 128
    assert err.value.capacity == 64
    # a typed error is NOT a worker death: same worker, no replacement
    assert pool.stats.replaced == 0
    assert pool.stats.crashes == 0
    result, _s, _p = _call(pool, FaultKernel("ok"))
    assert result == 42.0


def test_replacement_worker_is_rewarmed(pool):
    """A replacement spawned after a crash re-warms with every recipe
    the pool has seen — the 'recipe ships once' contract holds across
    worker generations."""
    ok_key = pool_mod.pool_key(FaultKernel("ok"))
    pool.register_recipe(ok_key, FaultRecipe("ok"))
    with pytest.raises(KernelCrashError):
        _call(pool, FaultKernel("sigkill"))
    assert len(pool._idle) == 1
    assert ok_key in pool._idle[0].warmed


def test_pooled_supervised_crash_is_typed(monkeypatch):
    """``REPRO_POOL=1`` supervised routing: a worker death comes back
    as the same typed error the fork-per-call supervisor raises."""
    monkeypatch.setenv("REPRO_POOL", "1")
    with pytest.raises(KernelCrashError) as err:
        run_supervised(FaultKernel("sigsegv"), {})
    assert err.value.signal == signal.SIGSEGV
    result = run_supervised(FaultKernel("ok"), {})
    assert result == 42.0
    pool_mod.shutdown_shared_pool()


def test_crash_unlinks_the_result_segment(pool, tmp_path):
    """The parent chose the result-segment name before dispatch; after
    a mid-call death it reaps that name unconditionally (covered by the
    module's no-orphan fixture; this asserts the immediate state)."""
    with pytest.raises(KernelCrashError):
        _call(pool, FaultKernel("sigkill"))
    assert not [e for e in shm_entries() if "_r" in e]


# ----------------------------------------------------------------------
# interpreter-exit hygiene (the teardown-ordering satellite)
# ----------------------------------------------------------------------
def _script(tmp_path, name: str, body: str):
    """A driver file for a fresh interpreter.  The ``__main__`` guard
    matters: spawn workers re-import the file."""
    import textwrap

    path = tmp_path / name
    path.write_text(
        "import sys\n"
        f"sys.path[:0] = {[str(p) for p in sys.path]!r}\n"
        "if __name__ == '__main__':\n"
        + textwrap.indent(textwrap.dedent(body), "    "))
    return [sys.executable, str(path)]


def _env(tmp_path, **extra):
    return dict(os.environ, REPRO_KERNEL_CACHE_DIR=str(tmp_path / "kcache"),
                **extra)


def test_interpreter_exit_leaves_no_warnings_or_segments(tmp_path):
    """A script that uses shared pools/executors and simply exits must
    not print BrokenProcessPool / leaked-semaphore warnings, and must
    leave /dev/shm clean — the atexit-managed drain joins everything
    before interpreter teardown."""
    script = _script(tmp_path, "exit_script.py", """
        from tests.faults.test_pool_faults import FaultKernel
        from repro.runtime import pool as pool_mod
        from repro.runtime.api import run_sharded  # noqa: F401
        pool = pool_mod.get_shared_pool(2)
        key = pool_mod.pool_key(FaultKernel('ok'))
        pool.register_recipe(key, FaultKernel('ok').recipe)
        r, _s, _p = pool.run_call(key, {}, None, None, False, None)
        assert r == 42.0
        print('done')
        """)   # no shutdown on purpose: atexit must handle it
    before = shm_entries()
    proc = subprocess.run(script, capture_output=True, text=True,
                          timeout=120, env=_env(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "done" in proc.stdout
    for marker in ("BrokenProcessPool", "leaked semaphore",
                   "leaked shared_memory", "resource_tracker",
                   "Traceback"):
        assert marker not in proc.stderr, proc.stderr
    assert shm_entries() == before


def test_fresh_process_forked_pools_share_one_tracker(tmp_path):
    """The first pooled call of a fresh process forks its workers before
    any segment (hence any resource tracker) exists.  Were each worker
    to start a tracker of its own on first attach, that tracker would
    unlink the parent's live operand segments when the worker exits —
    and every shard of the second pool would fail over in-process."""
    script = _script(tmp_path, "fresh_pool.py", """
        import os
        from repro.runtime import shutdown_shared_runtime
        from tests.runtime.test_pool import spmv_kernel
        kernel, tensors = spmv_kernel(n=64)
        for _round in range(2):
            stats = []
            kernel.run_sharded(tensors, executor='pool', workers=2,
                               shards=4, stats_out=stats)
            print(os.getpid(), *[f'{s.worker}:{s.retried}' for s in stats])
            shutdown_shared_runtime()
        """)
    proc = subprocess.run(
        script, capture_output=True, text=True, timeout=120,
        env=_env(tmp_path, REPRO_MP_START="fork", REPRO_SHM_THRESHOLD="0"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rounds = [line.split() for line in proc.stdout.splitlines()]
    assert len(rounds) == 2
    for parent, *shards in rounds:
        assert len(shards) == 4
        for shard in shards:
            worker, retried = shard.split(":")
            assert retried == "False" and worker not in ("local", parent)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_workers_do_not_outlive_a_killed_parent(tmp_path, start_method):
    """SIGKILL the pool's owner: each worker must read EOF on its pipe
    and leave — which it cannot while a sibling forked after it still
    holds a copy of the parent's end."""
    script = _script(tmp_path, "owner.py", """
        import time
        from repro.runtime.pool import WorkerPool
        pool = WorkerPool(2)
        assert all(pool.health_check().values())
        print(*[w.proc.pid for w in pool._idle], flush=True)
        time.sleep(60)
        """)
    owner = subprocess.Popen(
        script, stdout=subprocess.PIPE, text=True,
        env=_env(tmp_path, REPRO_MP_START=start_method))
    pids = [int(pid) for pid in owner.stdout.readline().split()]
    try:
        assert len(pids) == 2 and all(map(_running, pids))
        owner.kill()
        owner.wait(10)
        limit = time.monotonic() + 2.0
        while any(map(_running, pids)) and time.monotonic() < limit:
            time.sleep(0.02)
        assert not any(map(_running, pids))
    finally:
        owner.kill()
        owner.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
