"""Execution policy: where and how one kernel call runs, as one value.

Every public run entry point (``Kernel.run`` / ``run_sharded`` /
``run_batch``, ``run_supervised``, ``run_pooled``) calls :func:`resolve`
once and hands the result down; nothing below re-reads the environment
or re-derives a field.  Each field has one precedence — call argument →
the kernel handle's build-time default → ``REPRO_*`` → built-in default
— and DESIGN.md ("Execution policy") has the table and the reasons.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple, Optional, Union

from repro import config
from repro.compiler.resilience import logger


class ExecutionPolicy(NamedTuple):
    """One call's resolved routing.

    Resolution is lazy: a field the chosen route never reads keeps its
    default here and its environment variable is not consulted (an
    in-process, unsupervised run reads two).
    """

    #: shard executor (``serial`` | ``thread`` | ``pool``); None = one
    #: unsharded run
    executor: Optional[str] = None
    workers: Optional[int] = None
    shards: Optional[int] = None
    #: run in a crash-isolated child (fork supervisor or pool worker)
    supervised: bool = False
    #: wall-clock kill budget in seconds, wherever the run is isolated
    deadline: Optional[float] = None
    #: ``RLIMIT_AS`` of a fork child, MiB
    mem_mb: Optional[int] = None
    #: serve a supervised run from the resident pool, not a fresh fork
    pool_route: bool = False
    #: journal completed shard partials
    durable: bool = False
    #: resident-partial budget before the governor spills, MiB
    budget_mb: Optional[float] = None
    #: bytes at which an operand or result travels by shared memory
    threshold: Optional[int] = None


IN_PROCESS = ExecutionPolicy()


def worker_count(default: Optional[int] = None) -> int:
    """Worker count for parallel executors (``REPRO_WORKERS`` override,
    then ``default``, then the machine's CPU count)."""
    value = config.get("REPRO_WORKERS")
    if value is not None:
        return value
    if default is not None:
        return int(default)
    return max(1, os.cpu_count() or 1)


def is_durable(durable: Optional[bool] = None,
               resume: Optional[str] = None) -> bool:
    """Whether a sharded run journals its partials: the argument, else
    a pinned ``resume`` job id, else ``REPRO_DURABLE``."""
    if durable is not None:
        return bool(durable)
    return resume is not None or config.get("REPRO_DURABLE")


def resolve(
    kernel,
    *,
    parallel: Optional[Union[str, bool]] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    supervised: Optional[bool] = None,
    deadline: Optional[float] = None,
    mem_mb: Optional[int] = None,
    pool_route: Optional[bool] = None,
    durable: Optional[bool] = None,
    resume: Optional[str] = None,
) -> ExecutionPolicy:
    """The policy of one call on ``kernel``; None arguments defer.

    ``parallel=False`` forces one unsharded run over every default.
    ``REPRO_WORKERS`` is the one inversion: it caps the worker count
    over the argument (an operator's limit on a shared machine).
    """
    if parallel is None:
        executor = kernel.parallel or config.get("REPRO_PARALLEL")
    else:
        executor = parallel or None
    if supervised is None:
        supervised = kernel.supervised
    if supervised is None:
        supervised = config.get("REPRO_SUPERVISE")
    if supervised is None:
        # auto: a C kernel with an output store the capacity lint could
        # not prove in bounds; the Python backend cannot corrupt the host
        supervised = kernel.needs_guard and kernel.c_backed
    if executor is None and not supervised:
        return IN_PROCESS

    if executor == "pool" and kernel.recipe is None:
        # a FunctionInput binding holds an arbitrary callable
        logger.warning(
            "kernel %r has no rebuild recipe (function-valued input); "
            "downgrading the %s executor to threads", kernel.name, executor,
        )
        executor = "thread"
    if supervised:
        # an explicit deadline — a request budget from the serving
        # layer — arms the kill on any isolated route, supervised or not
        if deadline is None:
            deadline = config.get("REPRO_KERNEL_DEADLINE")
        if pool_route is None:
            # a per-call cap (pool workers fix their rlimit at start)
            # and a kernel no worker can rebuild pin the fork-per-call
            # child; else REPRO_POOL; else auto: a process that owns a
            # pool uses it, any other keeps nothing resident (a server
            # with a ``fault_hook`` opens none — see ``serve.app``)
            if mem_mb is not None or kernel.recipe is None:
                pool_route = False
            else:
                pool_route = config.get("REPRO_POOL")
            if pool_route is None:
                pool_mod = sys.modules.get("repro.runtime.pool")
                pool_route = pool_mod is not None and pool_mod.shared_pool_open()
        if mem_mb is None:
            mem_mb = config.get("REPRO_KERNEL_MEM_MB")
    threshold = (
        config.get("REPRO_SHM_THRESHOLD") if executor == "pool" or pool_route
        else None
    )
    if executor is None:
        return ExecutionPolicy(
            supervised=True, deadline=deadline, mem_mb=mem_mb,
            pool_route=bool(pool_route), threshold=threshold,
        )
    n = worker_count(workers if workers is not None else kernel.workers)
    return ExecutionPolicy(
        executor=executor,
        workers=n,
        shards=int(shards) if shards is not None else n,
        supervised=bool(supervised),
        deadline=deadline,
        mem_mb=mem_mb,
        pool_route=bool(pool_route),
        durable=is_durable(durable, resume),
        budget_mb=config.get("REPRO_MEM_BUDGET_MB"),
        threshold=threshold,
    )


__all__ = ["ExecutionPolicy", "IN_PROCESS", "is_durable", "resolve",
           "worker_count"]
