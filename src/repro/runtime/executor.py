"""Executor backends behind one futures API.

Three interchangeable backends run shard tasks (DESIGN.md "Execution
policy" has the measurements each one stays for):

``serial``
    Runs every task inline at submit time.  The debug oracle: identical
    scheduling semantics, zero concurrency, deterministic logs.  The
    parity suite uses it as the reference the parallel backends must
    match exactly.

``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Compiled C
    kernels are ctypes foreign calls, which release the GIL for the
    duration of the loop nest — threads give genuine parallelism for
    the C backend at zero serialization cost (operands are shared, not
    pickled).

``pool``
    The persistent pre-warmed :class:`~repro.runtime.pool.WorkerPool`
    behind a thread front-end: each submitted task is a blocking
    pipe round-trip to a resident worker (pipe waits release the GIL),
    kernels stay loaded in the workers across calls, and operands
    travel through the :mod:`repro.runtime.shm` zero-copy data plane.
    The one backend for GIL-bound (Python-backend) kernels.

All backends bound their task queue: ``submit`` blocks once
``queue_bound`` tasks are in flight, so a run of many shards cannot
marshal every shard's operands into memory at once.

Teardown ordering: shared pools must drain and join their workers
*before* interpreter shutdown tears the threading machinery down —
a plain ``atexit`` hook runs after ``concurrent.futures`` has already
broken its pools, which used to leave ``BrokenProcessPool`` noise and
leaked-semaphore warnings behind.  :func:`register_runtime_shutdown`
therefore registers :func:`shutdown_shared_runtime` via
``threading._register_atexit`` — those callbacks run when the main
thread finishes, before ``concurrent.futures`` reaps anything — with
the ordinary ``atexit`` hook kept as an idempotent fallback.
"""

from __future__ import annotations

import atexit
import functools
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

from repro import config
from repro.compiler.resilience import logger
from repro.runtime import shm
from repro.runtime.policy import worker_count


class Executor:
    """The common surface: ``submit`` → :class:`Future`, ``shutdown``.

    Also a context manager (``with get_executor(...) as ex:``) so error
    paths cannot leak worker pools.
    """

    name = "base"

    def __init__(self, workers: int, queue_bound: Optional[int] = None) -> None:
        self.workers = max(1, int(workers))
        self.queue_bound = (
            int(queue_bound) if queue_bound is not None else self.workers * 4
        )
        self._slots = threading.BoundedSemaphore(self.queue_bound)

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; blocks while the bounded
        queue is full."""
        self._slots.acquire()
        try:
            future = self._submit(fn, *args, **kwargs)
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(lambda _f: self._slots.release())
        return future

    def _submit(self, fn: Callable, *args, **kwargs) -> Future:
        raise NotImplementedError

    def shutdown(self) -> None:
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """Inline execution with a real Future — the debug oracle."""

    name = "serial"

    def __init__(self, workers: int = 1, queue_bound: Optional[int] = None) -> None:
        super().__init__(1, queue_bound)

    def _submit(self, fn: Callable, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


class ThreadExecutor(Executor):
    """Thread pool; parallel for GIL-releasing (ctypes C) kernels."""

    name = "thread"

    def __init__(self, workers: int, queue_bound: Optional[int] = None) -> None:
        super().__init__(workers, queue_bound)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )

    def _submit(self, fn: Callable, *args, **kwargs) -> Future:
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class PoolExecutor(Executor):
    """Thread front-end over the shared persistent worker pool.

    The submitted callables (``WorkerPool.run_call`` bound methods from
    :mod:`repro.runtime.api`) block on a worker pipe; a thread per pool
    worker is enough to keep every resident worker busy, and the pipe
    waits release the GIL.  ``shutdown`` tears down only the thread
    front-end — the shared :class:`~repro.runtime.pool.WorkerPool`
    holds the warmed kernels and outlives any one executor.
    """

    name = "pool"

    def __init__(self, workers: int, queue_bound: Optional[int] = None) -> None:
        super().__init__(workers, queue_bound)
        from repro.runtime import pool as pool_mod

        self.pool = pool_mod.get_shared_pool(self.workers)
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-pool"
        )

    def _submit(self, fn: Callable, *args, **kwargs) -> Future:
        return self._threads.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        self._threads.shutdown(wait=True)


def get_executor(
    name: str, workers: Optional[int] = None, queue_bound: Optional[int] = None
) -> Executor:
    """Factory: executor by name.  ``workers`` is a resolved count (the
    runtime passes its policy's); None takes ``REPRO_WORKERS``, else
    the CPU count."""
    n = workers if workers is not None else worker_count()
    if name == "serial":
        return SerialExecutor(1, queue_bound)
    if name == "thread":
        return ThreadExecutor(n, queue_bound)
    if name == "pool":
        return PoolExecutor(n, queue_bound)
    logger.warning(
        "unknown executor %r (expected one of %s); using serial",
        name, list(config.EXECUTORS),
    )
    return SerialExecutor(1, queue_bound)


_SHARED: dict = {}
_SHARED_LOCK = threading.Lock()


def get_shared_executor(name: str, workers: Optional[int] = None) -> Executor:
    """A process-wide pool per ``(name, workers)``, created on first use
    and reused after.

    ``run_sharded`` in a loop must not pay pool construction per call.
    Shared pools are shut down at interpreter exit; callers must not
    ``shutdown()`` them.
    """
    key = (name, workers)
    with _SHARED_LOCK:
        ex = _SHARED.get(key)
        if ex is None:
            ex = get_executor(name, workers)
            _SHARED[key] = ex
            register_runtime_shutdown()
        return ex


def discard_shared_executor(ex: Executor) -> None:
    """Evict a broken pool from the shared registry and tear it down.

    A :class:`~concurrent.futures.BrokenExecutor` pool rejects every
    further submit, so leaving it cached would poison all later
    ``run_sharded`` calls on that backend; after eviction the next
    :func:`get_shared_executor` call builds a fresh pool.
    """
    with _SHARED_LOCK:
        for key, cached in list(_SHARED.items()):
            if cached is ex:
                del _SHARED[key]
    try:
        ex.shutdown()
    except Exception:
        pass


def shutdown_shared_executors() -> None:
    """Tear down every shared pool (also registered at exit)."""
    with _SHARED_LOCK:
        for ex in _SHARED.values():
            ex.shutdown()
        _SHARED.clear()


def shutdown_shared_runtime() -> None:
    """Drain the whole shared runtime in dependency order: the worker
    pool first (its workers are reached through executor threads), then
    the executors.  Idempotent — both halves tolerate repeat calls, so
    the ``atexit`` fallback after the early threading hook is a no-op.

    Only the process that created the shared resources may drain them:
    fork children inherit both the registries and the threading-atexit
    registration, but the pools' manager threads do not survive the
    fork, so a ``shutdown(wait=True)`` on an inherited executor would
    block forever on a thread that is not running.
    """
    if _runtime_owner_pid is not None and _runtime_owner_pid != os.getpid():
        return
    try:
        from repro.runtime import pool as pool_mod

        pool_mod.shutdown_shared_pool()
    except Exception:  # pragma: no cover - teardown must never raise
        pass
    shutdown_shared_executors()


_runtime_owner_pid: Optional[int] = None


def register_runtime_shutdown() -> None:
    """Register :func:`shutdown_shared_runtime` to run when the main
    thread finishes — *before* ``concurrent.futures`` reaps its pools —
    so shared workers drain and join instead of being found broken.

    ``threading._register_atexit`` callbacks run in reverse
    registration order; this registration happens at first shared-pool
    creation, i.e. after ``concurrent.futures`` registered its own
    hook at import, so ours runs first.  Registered once per process —
    a fork child that builds its own shared pools registers afresh
    (its inherited registration is disarmed by the owner-pid check: the
    child keeps its parent's pid there until it does).
    """
    global _runtime_owner_pid
    if _runtime_owner_pid == os.getpid():
        return
    _runtime_owner_pid = os.getpid()
    try:
        threading._register_atexit(shutdown_shared_runtime)
    except Exception:
        # interpreter already shutting down (or a Python without the
        # private hook): the atexit fallback below still runs
        pass


#: module → every module-level lock in ``src/`` (tests/runtime/test_pool
#: checks the sources against it): one held at fork time — by another
#: thread, or by the forking one, since workers are forked inside
#: ``get_shared_executor`` / ``get_shared_pool`` — stays held in the child
_FORK_LOCKS = {
    "repro.runtime.executor": ("_SHARED_LOCK",),
    "repro.runtime.pool": ("_shared_lock",),
    "repro.runtime.shm": ("_seq_lock", "_export_lock", "_attach_lock"),
    "repro.compiler.resilience": ("_fault_lock", "_probe_lock"),
    "repro.compiler.cache": ("kernel_cache._lock",),
    "repro.compiler.codegen_c": ("_lock",),
}


def _forget_inherited_runtime() -> None:
    """Drop shared-runtime state inherited across a ``fork``.

    The child must neither reuse nor tear down the parent's pools (the
    parent still owns their processes and manager threads); clearing the
    registries means a child that wants parallelism builds its own.
    ``_runtime_owner_pid`` keeps the parent's pid, which is what leaves
    the inherited exit hook disarmed here, and every lock in
    :data:`_FORK_LOCKS` is made afresh.
    """
    _SHARED.clear()
    for module, paths in _FORK_LOCKS.items():
        for path in paths if module in sys.modules else ():
            *owners, name = path.split(".")
            owner = functools.reduce(getattr, owners, sys.modules[module])
            setattr(owner, name, threading.Lock())
    if "repro.runtime.pool" in sys.modules:
        sys.modules["repro.runtime.pool"]._shared = None


os.register_at_fork(before=shm._give_back,
                    after_in_child=_forget_inherited_runtime)
atexit.register(shutdown_shared_runtime)
