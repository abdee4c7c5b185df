"""Worker side of the persistent pool.

A worker is forked from the pool's owner where the platform can fork
(``REPRO_MP_START``) and spawned otherwise, so everything here must
also be importable and picklable from a fresh interpreter: no closures,
no compiled-kernel handles.  A worker receives a
:class:`~repro.compiler.kernel.KernelRecipe`, rebuilds the kernel
through the ordinary :class:`~repro.compiler.kernel.KernelBuilder` path
— which lands on the two-tier cache: the in-memory memo (a forked
worker is born with the parent's; a spawned one fills its own from the
first task on), else the parent's on-disk payload/``.so`` tier — and
keeps it resident.  Concurrent first-touch rebuilds across workers
serialize on the cache's per-key file locks, so exactly one worker
compiles and the rest read its artifact.

:func:`pool_worker_main` is the resident message loop of
:class:`~repro.runtime.pool.WorkerPool`: kernels are *warmed* once per
cache key, operands arrive as :class:`~repro.runtime.shm.TensorRef`
descriptors over shared memory, and rlimits are applied once at worker
start so the sandbox cost is amortized across thousands of calls.
"""

from __future__ import annotations

import os
import signal
import stat
import time
from typing import Mapping, Optional


def _shed_inherited(conn) -> None:
    """Drop what a forked worker inherited and must not keep (a spawned
    one has none of it): the parent's signal handlers and wakeup fd, and
    every socket but its own — a sibling's parent-side end held here
    keeps that sibling from reading EOF when the parent dies, a server's
    listening or client socket stays open as long as this worker lives.
    Sockets only — the pipes are multiprocessing's (the sentinel the
    parent's ``join(timeout)`` watches, the tracker) — and re-pointed at
    the null device, not freed, so the inherited object that still owns
    a number can close nothing this worker opens later.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    null = os.open(os.devnull, os.O_RDWR)
    fds = os.listdir("/dev/fd") if os.path.isdir("/dev/fd") else ()
    for fd in map(int, fds):
        try:
            if fd != conn.fileno() and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd, inheritable=False)
        except OSError:
            pass  # the listing's own descriptor, already closed
    os.close(null)


# ----------------------------------------------------------------------
# persistent pool worker: warm once, run many
# ----------------------------------------------------------------------
def _picklable(exc: BaseException) -> BaseException:
    """An exception safe to send over the pipe (degrade to the message
    when the original cannot pickle)."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def pool_worker_main(
    conn,
    cache_dir: str,
    env: Mapping[str, str],
    mem_mb: Optional[int],
) -> None:
    """Resident worker loop of :class:`~repro.runtime.pool.WorkerPool`.

    Strict request/response protocol — every message gets exactly one
    reply (except ``exit``):

    * ``("warm", key, recipe)`` → ``("warmed", key)``: build the kernel
      (a disk-cache read in the common case) and keep it resident under
      its cache key.
    * ``("run", key, recipe?, refs, output_dims, capacity, auto_grow,
      max_capacity, result_name, threshold)`` →
      ``("ok", payload, seconds, pid)``: reconstruct operand tensors as
      shared-memory views, run the resident kernel, and return the
      result inline or packed into the parent-named ``result_name``
      segment.  The optional recipe covers a key the worker has not
      seen (a replacement worker mid-stream); None for warmed keys —
      the "recipe ships once" contract.
    * ``("ping", token)`` → ``("pong", token, pid)``: health check.
    * ``("exit",)``: drain attachments and leave.

    Typed kernel errors reply ``("err", exc, seconds)``; anything that
    escapes the interpreter (segfault, rlimit kill) is decoded by the
    parent from the exit status.  ``RLIMIT_AS`` is applied **once**
    here, not per call — that is the amortization the pool exists for.
    ``RLIMIT_CPU`` is deliberately not set: a resident worker's CPU
    time accumulates across calls, so a per-call budget must come from
    the parent's wall-clock deadline instead.
    """
    try:
        import faulthandler

        faulthandler.disable()  # worker crashes are decoded by the parent
    except Exception:  # pragma: no cover - faulthandler always importable
        pass
    _shed_inherited(conn)
    # pin the parent's configuration; without its cache directory every
    # worker would rebuild into its own and every shard recompile
    for key, value in env.items():
        os.environ.setdefault(key, value)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = cache_dir
    from repro.runtime import shm
    from repro.runtime.supervisor import _apply_rlimits

    _apply_rlimits(mem_mb, None)
    kernels: dict = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "exit":
                break
            if kind == "ping":
                conn.send(("pong", msg[1], os.getpid()))
                continue
            if kind == "warm":
                _, key, recipe = msg
                try:
                    kernels[key] = recipe.build()
                    conn.send(("warmed", key))
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    conn.send(("err", _picklable(exc), 0.0))
                continue
            if kind == "run":
                (_, key, recipe, refs, output_dims, capacity, auto_grow,
                 max_capacity, rname, threshold) = msg
                start = time.perf_counter()
                try:
                    kernel = kernels.get(key)
                    if kernel is None:
                        if recipe is None:
                            raise RuntimeError(
                                f"pool worker has no kernel for key "
                                f"{key!r} and no recipe was shipped"
                            )
                        kernel = kernels[key] = recipe.build()
                    if output_dims is not None and (
                        kernel.output is None
                        or tuple(kernel.output.dims) != tuple(output_dims)
                    ):
                        kernel = kernel.with_output_dims(output_dims)
                    tensors = {n: shm.open_ref(r) for n, r in refs.items()}
                    result = kernel._run_single(
                        tensors, capacity, auto_grow=auto_grow,
                        max_capacity=max_capacity,
                    )
                    payload = shm.export_result(result, rname, threshold)
                    conn.send(
                        ("ok", payload, time.perf_counter() - start,
                         os.getpid())
                    )
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    conn.send(
                        ("err", _picklable(exc), time.perf_counter() - start)
                    )
                continue
            conn.send(("err", RuntimeError(f"unknown message {kind!r}"), 0.0))
    finally:
        try:
            from repro.runtime import shm

            shm.close_attachments()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass
