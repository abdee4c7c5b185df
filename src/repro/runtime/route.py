"""How one kernel call runs: the runtime's entry for ``Kernel.run``.

:func:`run` resolves the call's execution policy once
(:mod:`repro.runtime.policy`) and routes it: a sharded policy to
:func:`repro.runtime.api.run_shards`, anything else through
:func:`run_guarded`, which each thread/serial shard takes too — in
process by :meth:`~repro.compiler.kernel.Kernel.execute`, or supervised
on a pool worker.  Every supervised call, a pool shard's included, is
settled by :func:`guard`, and no other module changes the circuit
breaker: it books the death, serves the kernel's pure-Python twin
(:func:`run_fallback`) or raises the typed error, and runs the probe.

The policy is the only other runtime module imported here: an
in-process run loads no breaker or pool.
"""

from __future__ import annotations

import dataclasses
import weakref
from functools import partial
from typing import Mapping, Optional, Union

from repro.compiler.resilience import logger
from repro.data.tensor import Tensor
from repro.errors import KernelCrashError, KernelTimeoutError
from repro.runtime.policy import ExecutionPolicy, resolve

#: kernel handle → its pure-Python twin, built by the first call that
#: needs it and dropped with the handle
_twins: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def run(
    kernel,
    tensors: Mapping[str, Tensor],
    *,
    capacity: Optional[int] = None,
    parallel: Optional[Union[str, bool]] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    supervised: Optional[bool] = None,
    deadline: Optional[float] = None,
) -> Union[Tensor, float, int, bool]:
    """Execute ``kernel`` on concrete tensors; returns the output tensor
    (or a scalar for shape-∅ kernels).

    ``parallel`` (a shard executor: ``"serial"``, ``"thread"``,
    ``"pool"``; ``False`` forces one unsharded run), ``workers``,
    ``shards``, ``supervised`` (run on a crash-isolated pool worker: a
    segfault or runaway loop becomes a typed
    :class:`~repro.errors.KernelCrashError` /
    :class:`~repro.errors.KernelTimeoutError`) and ``deadline`` (a
    wall-clock budget in seconds, enforced wherever the run is isolated
    and advisory in process) are this call's execution policy.  None
    defers to the handle's build-time default, then ``REPRO_*``, then
    the built-in default — :func:`repro.runtime.policy.resolve` is the
    one place that decides, DESIGN.md "Execution policy" the account of
    it.  ``capacity`` is :meth:`~repro.compiler.kernel.Kernel.execute`'s
    first reservation.
    """
    policy = resolve(
        kernel, parallel=parallel, workers=workers, shards=shards,
        supervised=supervised, deadline=deadline,
    )
    if policy.executor is None:
        return run_guarded(kernel, tensors, capacity, policy)
    from repro.runtime.api import run_shards

    return run_shards(kernel, tensors, policy, capacity=capacity)


def run_guarded(
    kernel,
    tensors: Mapping[str, Tensor],
    capacity: Optional[int],
    policy: ExecutionPolicy,
) -> Union[Tensor, float, int, bool]:
    """One unsharded run (also each thread/serial shard's body) under an
    already resolved ``policy``: in process, or supervised on a pool
    worker behind :func:`guard`; a kernel with no rebuild recipe cannot
    cross to a worker and runs in process, with a warning."""
    if not policy.supervised:
        return kernel.execute(tensors, capacity)
    if kernel.recipe is None:
        logger.warning(
            "kernel %r: supervision requested but the kernel has no "
            "rebuild recipe (function-valued input); running in-process",
            kernel.name,
        )
        return kernel.execute(tensors, capacity)
    from repro.runtime import pool

    return guard(kernel, tensors, capacity,
                 partial(pool.pooled, kernel, tensors, capacity, policy))


def guard(kernel, tensors, capacity, call, *, state: Optional[str] = None):
    """Settle one supervised ``call`` of ``kernel`` with the circuit
    breaker — the only place a death is booked.

    ``state`` is decided here, claiming a due probe, unless a dispatch
    decided it once for all its calls (:func:`breaker_closed`).  open →
    the pure-Python twin, ``call`` unmade.  closed → a completed call
    is a success; a crash/timeout is a death, re-raised typed.
    half-open → the call is the re-probe: success closes the breaker, a
    death re-opens it (backoff doubled) and serves the twin — callers
    already on fallback service are not handed the probe's failure.  A
    typed kernel error (``CapacityError``, ...) books nothing and hands
    the probe claim back.
    """
    from repro.runtime.breaker import HALF_OPEN, OPEN, breaker

    key = _breaker_key(kernel)
    if state is None:
        state = breaker.try_probe(key)
    if state == OPEN:
        return run_fallback(kernel, tensors, capacity)
    probe = state == HALF_OPEN
    if probe:
        logger.warning(
            "kernel %r: circuit breaker half-open; re-probing the "
            "supervised kernel", kernel.name,
        )
    try:
        result = call()
    except (KernelCrashError, KernelTimeoutError):
        breaker.record_failure(key, name=kernel.name, probe=probe)
        if probe:
            return run_fallback(kernel, tensors, capacity)
        raise
    except BaseException:
        if probe:
            breaker.release_probe(key)
        raise
    breaker.record_success(key, name=kernel.name, probe=probe)
    return result


def _breaker_key(kernel) -> str:
    return kernel.cache_key or f"uncached:{kernel.name}"


def breaker_closed(kernel) -> bool:
    """The breaker's verdict for a dispatch of several calls, read once
    and claiming no probe."""
    from repro.runtime.breaker import CLOSED, breaker

    return breaker.decide(_breaker_key(kernel)) == CLOSED


def fallback_kernel(kernel):
    """The memoized pure-Python twin of ``kernel`` (None when there is no
    rebuild recipe to build it from).  It is only ever executed, so it
    carries no execution policy of its own."""
    twin = _twins.get(kernel)
    if twin is None and kernel.recipe is not None:
        recipe = dataclasses.replace(
            kernel.recipe, backend="python", vectorize=None
        )
        twin = recipe.build()
        if twin.cache_key == kernel.cache_key:
            # this kernel was already Python-backed, so the rebuild
            # aliased it through the cache — serving a crashing kernel
            # as its own fallback is useless; build a fresh one instead
            twin = recipe.build(cache=False)
        out = kernel.output
        if out is not None and twin.output.dims != out.dims:
            # a free-split shard's view carries shard-sized output dims
            twin = twin.with_output_dims(out.dims)
        twin = _twins.setdefault(kernel, twin)
    return twin


def run_fallback(
    kernel, tensors: Mapping[str, Tensor], capacity: Optional[int],
) -> Union[Tensor, float, int, bool]:
    """Serve one run from the pure-Python twin of a kernel that has a
    rebuild recipe (every supervised one: a kernel without stays in
    process)."""
    logger.info(
        "kernel %r: serving the pure-Python fallback result", kernel.name,
    )
    return fallback_kernel(kernel).execute(tensors, capacity)
