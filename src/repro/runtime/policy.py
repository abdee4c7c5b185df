"""Execution policy: where and how one kernel call runs, as one value.

Every public run entry point (``Kernel.run`` / ``run_sharded``,
``run_supervised``) calls :func:`resolve` once and hands the result
down; nothing below re-reads the environment or re-derives a field.
Each field has one precedence — call argument → the kernel handle's
build-time default → ``REPRO_*`` → built-in default — and DESIGN.md
("Execution policy") has the table and the reasons.
"""

from __future__ import annotations

import os
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
    #: run in a crash-isolated pool worker
    supervised: bool = False
    #: wall-clock kill budget in seconds, wherever the run is isolated
    deadline: Optional[float] = None
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
        supervised = config.get("REPRO_SUPERVISE")
    if executor is None and not supervised:
        return IN_PROCESS

    if executor == "pool" and kernel.recipe is None:
        # a FunctionInput binding holds an arbitrary callable
        logger.warning(
            "kernel %r has no rebuild recipe (function-valued input); "
            "downgrading the %s executor to threads", kernel.name, executor,
        )
        executor = "thread"
    # an explicit deadline — a request budget from the serving layer —
    # arms the kill on any isolated route, supervised or not
    if supervised and deadline is None:
        deadline = config.get("REPRO_KERNEL_DEADLINE")
    threshold = (
        config.get("REPRO_SHM_THRESHOLD") if executor == "pool" or supervised
        else None
    )
    if executor is None:
        return ExecutionPolicy(
            supervised=True, deadline=deadline, threshold=threshold,
        )
    n = worker_count(workers if workers is not None else kernel.workers)
    return ExecutionPolicy(
        executor=executor,
        workers=n,
        shards=int(shards) if shards is not None else n,
        supervised=bool(supervised),
        deadline=deadline,
        durable=is_durable(durable, resume),
        budget_mb=config.get("REPRO_MEM_BUDGET_MB"),
        threshold=threshold,
    )


__all__ = ["ExecutionPolicy", "IN_PROCESS", "is_durable", "resolve",
           "worker_count"]
