"""Persistent, pre-warmed kernel worker pool.

The one way a kernel call leaves the process — every supervised run
and every ``pool``-executor shard lands here: a fixed set of worker
processes stays resident (started at construction), each compiled
kernel stays loaded in the workers under its cache key (warmed once:
the recipe crosses the pipe one time, the ``.so`` is dlopen'd one time,
then reused for thousands of calls), and operand/result arrays move
through the :mod:`repro.runtime.shm` zero-copy data plane instead of
pickle.

Supervision lives *inside* the pool: workers run under ``RLIMIT_AS``
applied once at start, the parent enforces per-call wall deadlines on
the reply pipe, and death-by-signal is decoded from the exit status,
so a kernel that segfaults, spins or blows its memory cap comes back as
a typed error instead of killing the host.  A dead worker never kills
the pool:
the call that observed the death raises its typed error and a fresh
replacement (re-warmed with every recipe the pool has seen) takes the
dead worker's slot.

Worker lifecycle state machine::

    spawn ──▶ idle ──acquire──▶ busy ──release──▶ idle
               │                 │
               │ idle > TTL      │ crash / deadline
               ▼                 ▼
             evict            kill + replace ──▶ idle (fresh worker)

Health checks: acquisition re-verifies liveness (a worker that died
idle is replaced before it is ever handed out), and :meth:`
WorkerPool.health_check` pings every idle worker on demand.  The
circuit breaker of :mod:`repro.runtime.breaker` keys off the same
failures this pool observes — :meth:`WorkerPool.stats` exposes the
per-key counters next to the breaker's state snapshot.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import resource_tracker
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import config
from repro.compiler import cache
from repro.compiler.resilience import logger
from repro.errors import KernelCrashError, KernelTimeoutError
from repro.runtime import executor as executor_mod, shm
from repro.runtime.policy import ExecutionPolicy, resolve, worker_count


class PoolUnavailableError(RuntimeError):
    """The pool cannot serve calls (failed spawn, closed pool)."""


def mp_context(method: str) -> multiprocessing.context.BaseContext:
    """The context a worker starts from (``REPRO_MP_START``):
    ``method`` where the platform has it, else ``spawn``, which every
    platform has."""
    if method not in multiprocessing.get_all_start_methods():
        method = "spawn"
    return multiprocessing.get_context(method)


def pool_key(kernel) -> str:
    """The worker-side memo key for a kernel: its content-addressed
    cache key, else a digest of the recipe itself (cache disabled)."""
    key = getattr(kernel, "cache_key", None)
    if key:
        return key
    recipe = getattr(kernel, "recipe", None)
    if recipe is None:
        raise PoolUnavailableError(
            f"kernel {getattr(kernel, 'name', '?')!r} has no rebuild "
            "recipe; it cannot cross the pool boundary"
        )
    return "recipe:" + hashlib.sha1(pickle.dumps(recipe)).hexdigest()


@dataclass
class PoolStats:
    """Counters the circuit breaker and benchmarks key off."""

    spawned: int = 0
    replaced: int = 0
    evicted: int = 0
    calls: int = 0
    crashes: int = 0
    timeouts: int = 0
    #: cumulative pool machinery overhead: wall time inside
    #: :meth:`WorkerPool.run_call` minus the worker-reported kernel
    #: seconds (worker acquisition, pipe round-trip, shm adoption);
    #: :meth:`WorkerPool.snapshot` reports its per-call mean
    overhead_s: float = 0.0
    #: typed failures per pool key — same keying as the circuit breaker
    failures: Dict[str, int] = field(default_factory=dict)

    def record_failure(self, key: str, *, timeout: bool) -> None:
        self.failures[key] = self.failures.get(key, 0) + 1
        if timeout:
            self.timeouts += 1
        else:
            self.crashes += 1

    @property
    def avg_overhead_s(self) -> float:
        """Mean dispatch overhead per completed call (0.0 before any)."""
        return self.overhead_s / self.calls if self.calls else 0.0


class _Worker:
    """One resident worker process and its duplex pipe.  ``warmed``
    mirrors the worker's kernel table: the keys it holds, least
    recently used first, evicted by the same rule."""

    __slots__ = ("proc", "conn", "warmed", "last_used", "wid")

    def __init__(self, proc, conn, wid: int) -> None:
        self.proc = proc
        self.conn = conn
        self.warmed: OrderedDict = OrderedDict()
        self.last_used = time.monotonic()
        self.wid = wid


class WorkerPool:
    """A fixed-size pool of resident kernel workers.

    ``workers`` defaults to ``REPRO_POOL_WORKERS`` (else
    ``REPRO_WORKERS``, else the CPU count); the start method follows
    ``REPRO_MP_START`` (``fork``: a worker starts with everything the
    parent had imported, built and loaded); ``REPRO_KERNEL_MEM_MB``
    caps each worker's address space, applied when the worker starts.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
    ) -> None:
        # an explicit size wins; the env knobs only fill the default
        if workers is None:
            workers = config.get("REPRO_POOL_WORKERS") or worker_count()
        self.max_workers = workers
        self._ctx = mp_context(start_method or config.get("REPRO_MP_START"))
        self._lock = threading.Lock()
        self._have_idle = threading.Condition(self._lock)
        self._idle: List[_Worker] = []
        self._busy: set = set()
        self._recipes: Dict[str, object] = {}
        self._next_wid = 0
        self._closed = False
        self.stats = PoolStats()
        self._cache_dir = str(cache.default_cache_dir())
        self._env = {
            k: v for k, v in os.environ.items() if k.startswith("REPRO_")
        }
        # before any fork: a worker that started a tracker of its own on
        # first attach would have it unlink the parent's live segments
        resource_tracker.ensure_running()
        # pre-fork the full complement so first calls find warm pipes
        with self._lock:
            for _ in range(self.max_workers):
                self._idle.append(self._spawn())

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        """Start one worker (caller holds the lock) and warm it with
        the newest recipes the pool has seen, as many as it holds."""
        from repro.runtime import worker as worker_mod

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            proc = self._ctx.Process(
                target=worker_mod.pool_worker_main,
                args=(child_conn, self._cache_dir, self._env),
                daemon=True,
                name=f"repro-pool-{self._next_wid}",
            )
            proc.start()
        except Exception as exc:
            parent_conn.close()
            raise PoolUnavailableError(f"could not spawn pool worker: {exc}")
        finally:
            child_conn.close()
        w = _Worker(proc, parent_conn, self._next_wid)
        self._next_wid += 1
        self.stats.spawned += 1
        for key, recipe in list(self._recipes.items())[-cache.MEMO_ENTRIES:]:
            if not self._warm_one(w, key, recipe):
                break
        return w

    def _warm_one(self, w: _Worker, key: str, recipe,
                  deadline: Optional[float] = None) -> bool:
        """Ship one recipe to one worker and await the ack; False when
        the worker is gone (the caller replaces it).  The caller holds
        the pool lock, so the wait is bounded — by ``deadline``, else by
        what a cold build may take: a worker still silent then is killed
        and the recipe forgotten (it would wedge the replacement too).
        """
        if deadline is None:
            deadline = config.get("REPRO_GCC_TIMEOUT") + 5.0
        try:
            w.conn.send(("warm", key, recipe))
            if not w.conn.poll(deadline):
                self._recipes.pop(key, None)
                self.stats.record_failure(key, timeout=True)
                w.proc.kill()
                return False
            reply = w.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            return False
        if reply[0] == "warmed":
            cache.remember(w.warmed, key)
            return True
        logger.warning(
            "pool worker %d could not warm kernel key %.24s…: %s",
            w.wid, key, reply[1],
        )
        return True  # worker is healthy, the build just failed

    def _destroy(self, w: _Worker, *, replace: bool) -> None:
        """Kill one worker and optionally put a replacement on the idle
        list (caller holds the lock)."""
        try:
            w.conn.close()
        except Exception:
            pass
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(5.0)
        self._busy.discard(w)
        if w in self._idle:
            self._idle.remove(w)
        if replace and not self._closed:
            self.stats.replaced += 1
            try:
                self._idle.append(self._spawn())
                self._have_idle.notify()
            except PoolUnavailableError as exc:
                logger.warning("pool replacement spawn failed: %s", exc)

    def _acquire(self, timeout: Optional[float] = None) -> _Worker:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise PoolUnavailableError("worker pool is shut down")
                while self._idle:
                    w = self._idle.pop()  # LIFO keeps hot workers hot
                    if w.proc.is_alive():
                        self._busy.add(w)
                        return w
                    # died while idle: replace before handing anything out
                    self._destroy(w, replace=True)
                if len(self._busy) < self.max_workers:
                    w = self._spawn()
                    self._busy.add(w)
                    return w
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise KernelTimeoutError(
                        f"no pool worker became free within the call's "
                        f"{timeout:.1f}s deadline", deadline=timeout,
                    )
                self._have_idle.wait(
                    0.1 if remaining is None else min(remaining, 0.1)
                )

    def _release(self, w: _Worker) -> None:
        with self._lock:
            self._busy.discard(w)
            if self._closed:
                self._destroy(w, replace=False)
                return
            w.last_used = time.monotonic()
            self._idle.append(w)
            self._have_idle.notify()
            self._evict_stale()

    def _evict_stale(self) -> None:
        """Drop idle workers beyond the TTL, always keeping one warm
        (caller holds the lock).  ``_idle`` is LIFO — the front of the
        list is the coldest worker."""
        ttl = config.get("REPRO_POOL_IDLE_TTL")
        if ttl is None:
            return
        now = time.monotonic()
        while len(self._idle) > 1 and now - self._idle[0].last_used > ttl:
            w = self._idle.pop(0)
            self._retire(w)
            self.stats.evicted += 1

    def _retire(self, w: _Worker) -> None:
        """Polite shutdown of one worker: exit message, then join."""
        try:
            w.conn.send(("exit",))
        except Exception:
            pass
        try:
            w.conn.close()
        except Exception:
            pass
        w.proc.join(2.0)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(5.0)

    # ------------------------------------------------------------------
    # the public call surface
    # ------------------------------------------------------------------
    def register_recipe(self, key: str, recipe,
                        deadline: Optional[float] = None) -> None:
        """Record a recipe for warm-up and broadcast it to the idle
        workers (a busy one gets it lazily, on its first call for the
        key).  A worker whose build outlasts ``deadline`` is killed and
        replaced, and the call raises as a run past its deadline does."""
        with self._lock:
            if key in self._recipes:
                return
            self._recipes[key] = recipe
            for w in list(self._idle):
                if key in w.warmed or self._warm_one(w, key, recipe, deadline):
                    continue
                self._destroy(w, replace=True)
                if key not in self._recipes:
                    raise KernelTimeoutError(
                        f"pool worker {w.wid} did not finish building kernel "
                        f"key {key:.24}… in time; it was killed and replaced",
                        deadline=deadline,
                    )

    def run_call(
        self,
        key: str,
        refs: Mapping[str, shm.TensorRef],
        output_dims: Optional[Sequence[int]],
        capacity: Optional[int],
        # dead slots: bench/workloads/job_sharded.py passes all eight
        # arguments by position; they go with the benchmark's next
        # change (ROADMAP item 6)
        _auto_grow: bool = False,
        _max_capacity: Optional[int] = None,
        deadline: Optional[float] = None,
        threshold: Optional[int] = None,
    ) -> Tuple[object, float, int]:
        """Run one warmed kernel call on a pool worker.

        Returns ``(result, seconds, pid)``.
        Raises the worker's typed kernel error, or
        :class:`~repro.errors.KernelTimeoutError` /
        :class:`~repro.errors.KernelCrashError` after killing and
        replacing the worker.  ``deadline`` covers the wait for a free
        worker too.
        """
        threshold = shm.threshold_or_default(threshold)
        t_enter = time.monotonic()
        w = self._acquire(deadline)
        self.stats.calls += 1
        rname = shm.result_name()
        dead = False
        try:
            recipe = None if key in w.warmed else self._recipes.get(key)
            try:
                w.conn.send((
                    "run", key, recipe, dict(refs), output_dims, capacity,
                    rname, threshold,
                ))
            except (OSError, BrokenPipeError) as exc:
                dead = True
                raise self._worker_died(w, key, rname, cause=str(exc))
            try:
                reply = self._await_reply(w, deadline, t_enter, key, rname)
            except (KernelCrashError, KernelTimeoutError):
                dead = True
                raise
            if reply[0] == "ok":
                _tag, payload, seconds, pid = reply
                cache.remember(w.warmed, key)
                result = shm.adopt_result(payload)
                self.stats.overhead_s += max(
                    0.0, (time.monotonic() - t_enter) - seconds
                )
                return result, seconds, pid
            _tag, exc, _seconds = reply
            shm.unlink_by_name(rname)
            raise exc
        finally:
            if not dead:
                self._release(w)

    def _await_reply(self, w: _Worker, deadline: Optional[float],
                     start: float, key: str, rname: str):
        """Poll the worker's pipe until ``start + deadline``; decode a
        missed deadline or a death into a typed error, then kill +
        replace."""
        limit = None if deadline is None else start + deadline
        while True:
            if limit is not None and time.monotonic() >= limit:
                with self._lock:
                    self._destroy(w, replace=True)
                shm.unlink_by_name(rname)
                self.stats.record_failure(key, timeout=True)
                raise KernelTimeoutError(
                    f"pooled kernel call missed its {deadline:.1f}s "
                    f"deadline; worker {w.wid} was killed and replaced",
                    deadline=deadline,
                )
            try:
                if w.conn.poll(0.05):
                    return w.conn.recv()
            except (EOFError, OSError):
                raise self._worker_died(w, key, rname)
            if not w.proc.is_alive():
                # drain a reply that raced the exit
                try:
                    if w.conn.poll(0.05):
                        return w.conn.recv()
                except (EOFError, OSError):
                    pass
                raise self._worker_died(w, key, rname)

    def _worker_died(
        self, w: _Worker, key: Optional[str], rname: Optional[str],
        cause: Optional[str] = None,
    ) -> KernelCrashError:
        """Decode a worker death into a typed error; kill + replace."""
        w.proc.join(2.0)
        code = w.proc.exitcode
        with self._lock:
            self._destroy(w, replace=True)
        if rname is not None:
            shm.unlink_by_name(rname)
        self.stats.record_failure(key or "<unknown>", timeout=False)
        if code is not None and code < 0:
            return KernelCrashError(
                f"pool worker {w.wid} died running a kernel",
                signal=-code, exitcode=code,
            )
        detail = f" ({cause})" if cause else ""
        return KernelCrashError(
            f"pool worker {w.wid} exited (status {code}) without "
            f"reporting a result{detail}",
            exitcode=code,
        )

    # ------------------------------------------------------------------
    # health & stats
    # ------------------------------------------------------------------
    def health_check(self) -> Dict[int, bool]:
        """Ping every idle worker; dead ones are replaced.  Returns
        ``{worker id: alive}`` for the workers checked."""
        report: Dict[int, bool] = {}
        with self._lock:
            for w in list(self._idle):
                ok = False
                try:
                    w.conn.send(("ping", w.wid))
                    if w.conn.poll(5.0):
                        reply = w.conn.recv()
                        ok = reply[0] == "pong" and reply[1] == w.wid
                except (EOFError, OSError, BrokenPipeError):
                    ok = False
                report[w.wid] = ok
                if not ok:
                    self._destroy(w, replace=True)
        return report

    def snapshot(self) -> Dict[str, object]:
        """Pool + breaker state for observability; the breaker keys off
        the same per-key failure counters recorded here."""
        from repro.runtime import breaker as breaker_mod

        with self._lock:
            idle = len(self._idle)
            busy = len(self._busy)
            warmed = {w.wid: len(w.warmed) for w in self._idle}
        return {
            "max_workers": self.max_workers,
            "idle": idle,
            "busy": busy,
            "warmed_keys_per_idle_worker": warmed,
            "recipes": len(self._recipes),
            "stats": self.stats,
            "avg_dispatch_overhead_s": self.stats.avg_overhead_s,
            "breaker": breaker_mod.breaker.snapshot(),
        }

    # ------------------------------------------------------------------
    def grow(self, workers: int) -> None:
        """Raise the pool size (never shrinks below current)."""
        with self._lock:
            if self._closed or workers <= self.max_workers:
                return
            extra = workers - self.max_workers
            self.max_workers = workers
            for _ in range(extra):
                try:
                    self._idle.append(self._spawn())
                except PoolUnavailableError as exc:
                    logger.warning("pool growth spawn failed: %s", exc)
                    break
            self._have_idle.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, wait: float = 5.0) -> None:
        """Drain and join every worker; idempotent.

        Idle workers get a polite ``exit`` and a join; busy workers are
        given ``wait`` seconds to come home, then killed.  After this
        the pool raises :class:`PoolUnavailableError` on use.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
        for w in idle:
            self._retire(w)
        limit = time.monotonic() + wait
        while True:
            with self._lock:
                busy = list(self._busy)
            if not busy or time.monotonic() >= limit:
                break
            time.sleep(0.02)
        with self._lock:
            for w in list(self._busy):
                self._destroy(w, replace=False)
            self._have_idle.notify_all()


def _call_now(fn, *args):
    return fn(*args)


def dispatch(
    kernel,
    shard_inputs: Sequence[Mapping[str, object]],
    shard_dims: Sequence[Optional[Sequence[int]]],
    capacity: Optional[int],
    policy: ExecutionPolicy,
    *,
    exports: Optional[Mapping[str, Optional[shm.TensorExport]]] = None,
    submit=_call_now,
    workers: Optional[int] = None,
    scoped: bool = False,
) -> list:
    """Send every shard (or the one supervised run) to the shared pool
    as shm descriptors; returns what ``submit`` returns for each —
    :meth:`WorkerPool.run_call`'s ``(result, seconds, pid)`` when
    called directly, a future of it behind an executor.
    ``scoped`` runs the calls on a one-worker pool of their own that is
    shut down before this returns (only with the direct ``submit``).

    ``exports`` holds the segments of operands that were exported
    *before* they were sliced: a shard's arrays are views into them and
    travel as byte windows, so the per-shard pipe payload is a few
    hundred bytes of descriptor regardless of operand size.  An operand
    it does not name is exported here, before the pool forks.
    """
    if kernel.recipe is None:
        raise PoolUnavailableError(
            f"kernel {kernel.name!r} has no rebuild recipe"
        )
    exports = exports or {}
    refs = [
        {name: shm.describe_tensor(
            t, exports.get(name) or shm.export_tensor(t, policy.threshold))
         for name, t in tensors.items()}
        for tensors in shard_inputs
    ]
    # after the exports: a worker forked before them maps the heap copies
    pool = WorkerPool(1) if scoped else get_shared_pool(workers)
    try:
        key = pool_key(kernel)
        pool.register_recipe(key, kernel.recipe, policy.deadline)
        call = partial(pool.run_call, deadline=policy.deadline,
                       threshold=policy.threshold)
        return [submit(call, key, r, dims, capacity)
                for r, dims in zip(refs, shard_dims)]
    finally:
        if scoped:
            pool.shutdown()


def pooled(kernel, tensors, capacity, policy: ExecutionPolicy) -> object:
    """One whole run on a pool worker under a resolved ``policy`` — the
    one-shard case of :func:`dispatch`.  It takes the shared pool when
    the process owns one.  A process that owns none keeps nothing
    resident: under ``fork`` the run gets a one-worker pool that is shut
    down when it returns (≈ 10 ms, E24); where workers are spawned
    (0.3 s each) it opens the shared pool at one worker instead, which a
    sharded run or the server grows."""
    # the handle may be a shard view; the worker's kernel has the
    # recipe's dims
    dims = tuple(kernel.output.dims) if kernel.output is not None else None
    scoped = not shared_pool_open() and mp_context(
        config.get("REPRO_MP_START")).get_start_method() == "fork"
    (result, _seconds, _pid), = dispatch(
        kernel, [tensors], [dims], capacity, policy, workers=1, scoped=scoped,
    )
    return result


def run_supervised(
    kernel,
    tensors,
    capacity: Optional[int] = None,
    *,
    deadline: Optional[float] = None,
) -> object:
    """Run one kernel invocation on a pool worker (see :func:`pooled`
    for which pool).

    Returns the worker's result.  Raises:

    * :class:`~repro.errors.KernelTimeoutError` — the wall-clock
      ``deadline`` (default ``REPRO_KERNEL_DEADLINE``) passed and the
      worker was killed and replaced;
    * :class:`~repro.errors.KernelCrashError` — the worker died by
      signal (or exited without reporting a result);
    * whatever typed error the kernel itself raised in the worker
      (``CapacityError`` with its sizing metadata, ``ShapeError``, ...);
    * :class:`PoolUnavailableError` — no worker could be started, or
      the kernel has no rebuild recipe.
    """
    policy = resolve(kernel, parallel=False, supervised=True,
                     deadline=deadline)
    return pooled(kernel, tensors, capacity, policy)


#: the name ``bench/`` still imports beside ``run_supervised``; it goes
#: with the benchmark's next change (ROADMAP item 7)
run_pooled = run_supervised


# ----------------------------------------------------------------------
# the process-wide shared pool
# ----------------------------------------------------------------------
_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()


def get_shared_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide pool, created on first use.

    A later request for more workers grows the existing pool rather
    than building a second one — warmed kernels live in the workers, so
    one pool concentrates the warmth.
    """
    global _shared
    with _shared_lock:
        if _shared is None or _shared.closed:
            _shared = WorkerPool(workers)
            executor_mod.register_runtime_shutdown()
        elif workers is not None and workers > _shared.max_workers:
            _shared.grow(workers)
        return _shared


def shared_pool_open() -> bool:
    """Whether this process owns an open shared pool."""
    pool = _shared
    return pool is not None and not pool.closed


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests; interpreter exit)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


__all__ = [
    "PoolStats",
    "PoolUnavailableError",
    "WorkerPool",
    "dispatch",
    "get_shared_pool",
    "pool_key",
    "run_pooled",
    "run_supervised",
    "shared_pool_open",
    "shutdown_shared_pool",
]
