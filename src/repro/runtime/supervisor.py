"""Supervised kernel execution: crash containment in a resource-capped child.

The Etch pipeline ultimately ``dlopen``s generated ``.so`` kernels into
the host interpreter via ctypes, so one bad kernel — a segfault from an
out-of-contract write, a runaway skip loop, an allocation blow-up —
takes down or wedges the whole process.  The static half of the defense
is PR 3's capacity lint (``Kernel.needs_guard``); this module is the
runtime half: :func:`run_supervised` executes one kernel invocation in
an isolated child process so that the worst a kernel can do is return a
typed error.

Containment contract:

* the child runs under POSIX rlimits — ``RLIMIT_AS`` caps the address
  space, ``RLIMIT_CPU`` (derived from the deadline) backstops a busy
  loop even if the parent is wedged;
* the parent enforces a wall-clock deadline and kills the child when it
  is missed → :class:`~repro.errors.KernelTimeoutError`;
* death by signal is decoded from the child's exit status →
  :class:`~repro.errors.KernelCrashError` carrying the signal number
  and name;
* a typed error raised *inside* the child (``CapacityError``,
  ``ShapeError``, ...) crosses the pipe and re-raises in the parent
  exactly as an in-process run would have raised it.

Deadline, memory cap and the fork-or-pool choice arrive resolved in the
call's :class:`~repro.runtime.policy.ExecutionPolicy` (DESIGN.md
"Execution policy" says why both children exist).  The fork child
inherits the parent's **in-memory** kernel handle — no pickling, no
rebuild, and any in-process monkeypatching, which the fault-injection
suite depends on — while a pooled worker rebuilds the genuine kernel
from its recipe.  A platform without ``fork`` has the pooled route
alone: its workers are spawned and rebuild from the recipe through the
disk cache, once per worker rather than once per call.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Optional

from repro.compiler import resilience
from repro.compiler.resilience import logger
from repro.errors import KernelCrashError, KernelTimeoutError
from repro.runtime.policy import ExecutionPolicy, resolve

try:  # POSIX-only; Windows children run uncapped (deadline still applies)
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

#: extra seconds of RLIMIT_CPU on top of the wall deadline — the parent
#: timer fires first in the healthy case; the rlimit is the backstop
_CPU_SLACK = 2.0

#: how long the parent keeps polling the result pipe after child exit
_DRAIN_TIMEOUT = 5.0


def _apply_rlimits(mem_mb: Optional[int], cpu_seconds: Optional[float]) -> None:
    """Cap the child's address space and CPU time.  Failures to set a
    limit are logged, not fatal — supervision still decodes signals and
    enforces the parent-side deadline."""
    if resource is None:  # pragma: no cover - non-POSIX platform
        return
    if mem_mb is not None:
        limit = int(mem_mb) << 20
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (OSError, ValueError) as exc:  # pragma: no cover - exotic env
            logger.warning("could not set RLIMIT_AS=%dMiB (%s)", mem_mb, exc)
    if cpu_seconds is not None:
        soft = max(1, int(cpu_seconds + _CPU_SLACK))
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 2))
        except (OSError, ValueError) as exc:  # pragma: no cover - exotic env
            logger.warning("could not set RLIMIT_CPU=%ds (%s)", soft, exc)


def _child_entry(
    conn,
    kernel,
    tensors,
    capacity,
    auto_grow,
    max_capacity,
    mem_mb,
    cpu_seconds,
) -> None:
    """Forked-child body: apply rlimits, run, report through the pipe.

    With the ``fork`` start method the arguments are inherited by
    memory copy, not pickled — the compiled ctypes handle travels for
    free.  The report is ``("ok", result)`` or ``("err", exc)``;
    anything that escapes both (a segfault, an rlimit kill) leaves its
    mark in the exit status instead, which the parent decodes.
    """
    try:
        import faulthandler

        # a crash in this child is *expected* containment, reported by
        # the parent's exit-status decoding; an inherited faulthandler
        # (pytest enables one) would spray C tracebacks on shared stderr
        faulthandler.disable()
    except Exception:  # pragma: no cover - faulthandler always importable
        pass
    _apply_rlimits(mem_mb, cpu_seconds)
    # chaos hook: REPRO_FAULT=supervised_child:sigkill models a child
    # OOM-killed before it produced anything — the env reaches a forked
    # child for free, no crash kernel required
    resilience.fault_point("supervised_child")
    try:
        result = kernel._run_single(
            tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity
        )
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - forwarded, not swallowed
        try:
            conn.send(("err", exc))
        except Exception:
            # unpicklable exception: degrade to the message alone
            conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
    finally:
        conn.close()


def mp_context(method: str = "fork") -> multiprocessing.context.BaseContext:
    """The context a child process starts from — the fork supervisor's
    and the worker pool's (``REPRO_MP_START``) alike: ``method`` where
    the platform has it, else ``spawn``, which every platform has."""
    if method not in multiprocessing.get_all_start_methods():
        method = "spawn"
    return multiprocessing.get_context(method)


def can_supervise(kernel) -> bool:
    """Whether this kernel can run supervised on this platform: always
    under ``fork``; under ``spawn`` only recipe-carrying kernels (a
    ``FunctionInput`` callable cannot cross a spawn boundary)."""
    if mp_context().get_start_method() == "fork":
        return True
    return getattr(kernel, "recipe", None) is not None


def run_supervised(
    kernel,
    tensors,
    capacity: Optional[int] = None,
    *,
    auto_grow: bool = False,
    max_capacity: Optional[int] = None,
    deadline: Optional[float] = None,
    mem_mb: Optional[int] = None,
):
    """Run one kernel invocation in a supervised, resource-capped child.

    Returns the child's result (the output tensor or scalar, pickled
    back over a pipe).  Raises:

    * :class:`~repro.errors.KernelTimeoutError` — the wall-clock
      ``deadline`` (default ``REPRO_KERNEL_DEADLINE``) passed and the
      parent killed the child;
    * :class:`~repro.errors.KernelCrashError` — the child died by
      signal (or exited without reporting a result);
    * whatever typed error the kernel itself raised in the child
      (``CapacityError`` with its sizing metadata, ``ShapeError``, ...),
      re-raised in the parent.
    """
    policy = resolve(
        kernel, parallel=False, supervised=True, deadline=deadline,
        mem_mb=mem_mb,
    )
    return supervise(kernel, tensors, capacity, policy, auto_grow=auto_grow,
                     max_capacity=max_capacity)


def supervise(kernel, tensors, capacity, policy: ExecutionPolicy, *,
              auto_grow: bool, max_capacity: Optional[int]):
    """:func:`run_supervised` under an already resolved ``policy``."""
    ctx = mp_context()
    forks = ctx.get_start_method() == "fork"
    if policy.pool_route or not forks:
        from repro.runtime import pool as pool_mod

        try:
            return pool_mod.pooled(
                kernel, tensors, capacity, policy, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
        except pool_mod.PoolUnavailableError as exc:
            if not forks:
                raise
            logger.warning(
                "kernel %r: pool route unavailable (%s); falling back to "
                "the fork-per-call supervisor", kernel.name, exc,
            )
    deadline = policy.deadline
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(send, kernel, tensors, capacity, auto_grow, max_capacity,
              policy.mem_mb, deadline),
        daemon=True,
    )
    start = time.monotonic()
    proc.start()
    send.close()  # the child's end lives on in the child
    try:
        payload = _await_result(proc, recv, deadline, kernel.name)
    finally:
        recv.close()
        proc.join(0.1)
        if proc.is_alive():  # pragma: no cover - kill path timing
            proc.kill()
            proc.join()
    status, value = payload
    elapsed = time.monotonic() - start
    if status == "ok":
        logger.debug(
            "kernel %r: supervised run ok in %.1f ms (pid %s)",
            kernel.name, elapsed * 1e3, proc.pid,
        )
        return value
    raise value


def _await_result(proc, recv, deadline: float, name: str):
    """Poll the result pipe up to ``deadline``; decode timeout/crash.

    The pipe is read *before* joining the child: a large result blocks
    the child's ``send`` until the parent drains it, so join-first would
    deadlock exactly on the biggest outputs.
    """
    limit = time.monotonic() + deadline
    while True:
        remaining = limit - time.monotonic()
        if remaining <= 0:
            proc.kill()
            proc.join()
            raise KernelTimeoutError(
                f"supervised kernel {name!r} missed its {deadline:.1f}s "
                f"deadline and was killed",
                deadline=deadline,
            )
        try:
            if recv.poll(min(remaining, 0.05)):
                return recv.recv()
        except (EOFError, OSError):
            break  # child died with the pipe open
        if not proc.is_alive():
            # the child exited; drain any result that raced the exit
            try:
                if recv.poll(0.05):
                    return recv.recv()
            except (EOFError, OSError):
                pass
            break
    proc.join(_DRAIN_TIMEOUT)
    code = proc.exitcode
    if code is not None and code < 0:
        raise KernelCrashError(
            f"supervised kernel {name!r} crashed",
            signal=-code, exitcode=code,
        )
    raise KernelCrashError(
        f"supervised kernel {name!r} exited (status {code}) without "
        f"reporting a result",
        exitcode=code,
    )


__all__ = ["run_supervised", "supervise", "can_supervise", "mp_context"]
