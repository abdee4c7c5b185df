"""Sharded execution: plan → schedule → merge.

:func:`run_sharded` is the engine behind ``Kernel.run_sharded`` and
:func:`run_shards` behind a sharded ``Kernel.run``.  The call's
execution policy is resolved once (:mod:`repro.runtime.policy`;
DESIGN.md "Execution policy") and passed to every shard.

Per-shard resilience mirrors the build-time story of
:mod:`repro.compiler.resilience`: a shard that fails on its executor
(a broken pool, a transient OS error) is retried once in the parent on
the serial path, and a supervised shard that dies fails over to the
pure-Python twin, each with a logged warning — the parallel runtime
degrades toward the oracle rather than failing the whole run.  Genuine
kernel errors (shape mismatches, an output that overflows its own
rerun) surface to the caller as they would on a serial run.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.compiler import resilience
from repro.compiler.resilience import logger
from repro.data.tensor import Tensor
from repro.errors import (
    KernelCrashError,
    KernelTimeoutError,
    ReproError,
    is_retryable,
)
from repro.runtime import pool as pool_mod, shm
from repro.runtime.breaker import CLOSED
from repro.runtime.executor import discard_shared_executor, get_shared_executor
from repro.runtime.governor import PartialAccumulator
from repro.runtime.jobs import JobJournal, job_signature
from repro.runtime.planner import plan_shards, slice_operands
from repro.runtime.policy import ExecutionPolicy, resolve
from repro.runtime.route import breaker_closed, guard, run_fallback, run_guarded


@dataclass(frozen=True)
class ShardStat:
    """Timing/volume record for one shard."""

    index: int
    lo: int
    hi: int
    seconds: float
    bytes_in: int
    worker: Union[int, str]     # pool worker pid, or a backend tag
    retried: bool = False
    #: this shard's supervised run crashed/timed out and the result was
    #: served by the pure-Python fallback instead
    failover: bool = False
    #: the partial came from a prior run's job journal; not re-executed
    skipped: bool = False
    #: the partial was evicted to the journal by the memory governor
    spilled: bool = False


def _local_task(kernel, tensors, capacity, policy):
    start = time.perf_counter()
    result = run_guarded(kernel, tensors, capacity, policy)
    return result, time.perf_counter() - start, "local"


def _submit(ex, fn, *args) -> Future:
    """Submit, turning a submit-time failure into a pre-failed future.

    A pool can be broken *before* any task runs (a worker killed under a
    previous call leaves :class:`BrokenExecutor` raising from ``submit``
    itself); routing the failure through a future lets the collection
    loop's per-shard retry handle it like any worker-side crash.
    """
    try:
        return ex.submit(fn, *args)
    except Exception as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _maybe_discard(ex, exc: Exception) -> None:
    if isinstance(exc, BrokenExecutor):
        logger.warning(
            "the shared %s pool is broken; discarding it (a fresh pool "
            "is built on next use)", ex.name,
        )
        discard_shared_executor(ex)


def run_sharded(
    kernel,
    tensors: Mapping[str, Tensor],
    *,
    capacity: Optional[int] = None,
    executor: str = "serial",
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    split_attr: Optional[str] = None,
    supervised: Optional[bool] = None,
    stats_out: Optional[List[ShardStat]] = None,
    deadline: Optional[float] = None,
    durable: Optional[bool] = None,
    resume: Optional[str] = None,
    job_out: Optional[Dict[str, object]] = None,
):
    """Partition one kernel run into shards, execute, and ⊕-merge.

    Degrades to the plain single run when no split index qualifies or
    the plan collapses to one shard; an explicit ``split_attr`` that is
    not splittable raises instead.  ``shards`` defaults to the worker
    count.  Per-shard stats land in ``stats_out`` when given (one list
    per call, so concurrent calls never share one).

    A shard whose *supervised* run dies (crash or deadline) is not
    retried in-process but failed over to the pure-Python backend for
    that shard alone (``failover=True`` / ``worker="fallback"`` in the
    stats), after :func:`~repro.runtime.route.guard` booked the death.

    ``durable=True`` (or ``REPRO_DURABLE=1``) journals every completed
    shard partial to an on-disk job keyed by the run's deterministic
    signature; a run killed mid-job resumes on the next identical
    invocation by loading journaled shards (``skipped=True`` in the
    stats) instead of re-executing them.  ``resume`` optionally pins
    the expected job id — a mismatch against the computed signature
    raises ``ValueError`` rather than silently starting a fresh job.
    ``REPRO_MEM_BUDGET_MB`` arms the memory governor: accumulated
    partials over the budget spill to the same journal and the merge
    streams them back one at a time (``spilled=True`` in the stats).
    With neither knob set, this path is bit-for-bit the historical
    hold-everything-in-RAM behaviour.  ``job_out``, when given, is
    filled with ``job_id`` / ``resumed_shards`` / ``spills``.
    """
    policy = resolve(
        kernel, parallel=executor, workers=workers, shards=shards,
        supervised=supervised, deadline=deadline, durable=durable,
        resume=resume,
    )
    return run_shards(
        kernel, tensors, policy, capacity=capacity, split_attr=split_attr,
        stats_out=stats_out, resume=resume, job_out=job_out,
    )


def run_shards(
    kernel,
    tensors: Mapping[str, Tensor],
    policy: ExecutionPolicy,
    *,
    capacity: Optional[int] = None,
    split_attr: Optional[str] = None,
    stats_out: Optional[List[ShardStat]] = None,
    resume: Optional[str] = None,
    job_out: Optional[Dict[str, object]] = None,
):
    """:func:`run_sharded` under an already resolved sharded ``policy``
    (``Kernel.run`` arrives here with the one it resolved)."""
    plan = plan_shards(kernel, tensors, policy.shards, split_attr=split_attr)
    if plan is None or plan.shards <= 1:
        logger.debug(
            "kernel %r: no multi-shard plan (%s); running unsharded",
            kernel.name,
            "no splittable index" if plan is None else "single shard",
        )
        return run_guarded(kernel, tensors, capacity, policy)

    executor = policy.executor
    if (executor == "pool" and policy.supervised
            and not breaker_closed(kernel)):
        # the twin or the probe is one shard at a time: the serial route
        executor = "serial"
    # operands move to shared memory before anything reads them or the
    # pool forks: shards are windows, fingerprints taken once, no heap copy
    exports = {
        name: shm.export_tensor(t, policy.threshold)
        for name, t in tensors.items()
    } if executor == "pool" else {}
    ex = get_shared_executor(executor, policy.workers)

    durable, budget_mb = policy.durable, policy.budget_mb
    journal: Optional[JobJournal] = None
    if durable or budget_mb is not None:
        journal = JobJournal(job_signature(kernel, plan, tensors))
        if resume is not None and resume != journal.job_id:
            raise ValueError(
                f"resume job id {resume!r} does not match this run's "
                f"signature {journal.job_id!r}: the kernel, shard plan, or "
                "operands differ from the journaled job"
            )
        journal.ensure(plan)
        if job_out is not None:
            job_out["job_id"] = journal.job_id
            job_out["job_dir"] = str(journal.dir)
    acc = PartialAccumulator(
        kernel, plan, journal,
        budget_bytes=budget_mb * 1024 * 1024 if budget_mb is not None else None,
    )

    # adopt journaled shards from a prior (killed) run of the same job:
    # they are loaded, checksum-verified, and never re-executed
    skipped: Dict[int, ShardStat] = {}
    if durable and journal is not None and journal.writable:
        for i in sorted(journal.completed()):
            if i >= plan.shards:
                continue
            prior = journal.load_shard(i, kernel.ops.semiring)
            if prior is None:
                continue  # corrupt: quarantined, shard re-executes
            lo, hi = plan.ranges[i]
            acc.add(i, prior, journaled=True)
            skipped[i] = ShardStat(
                index=i, lo=lo, hi=hi, seconds=0.0, bytes_in=0,
                worker="journal", skipped=True,
            )
    if skipped:
        logger.info(
            "kernel %r: resuming %s — %d/%d shard(s) adopted from the "
            "journal", kernel.name, journal.job_id, len(skipped), plan.shards,
        )

    out = kernel.output
    pending: List[int] = [i for i in range(plan.shards) if i not in skipped]
    shard_inputs: List[Mapping[str, Tensor]] = []
    shard_kernels: List[object] = []
    shard_dims: List[Optional[Sequence[int]]] = []
    for i in pending:
        lo, hi = plan.ranges[i]
        shard_inputs.append(slice_operands(kernel, tensors, plan, lo, hi))
        if plan.kind == "free":
            dims = (hi - lo,) + tuple(out.dims[1:])
            shard_dims.append(dims)
            shard_kernels.append(kernel.with_output_dims(dims))
        else:
            shard_dims.append(None)
            shard_kernels.append(kernel)

    stats: Dict[int, ShardStat] = dict(skipped)
    guarded = ex.name == "pool" and policy.supervised
    if ex.name == "pool":
        futures = pool_mod.dispatch(
            kernel, shard_inputs, shard_dims, capacity, policy,
            exports=exports, submit=partial(_submit, ex), workers=ex.workers,
        )
    else:
        futures = [
            _submit(ex, _local_task, sk, st, capacity, policy)
            for sk, st in zip(shard_kernels, shard_inputs)
        ]
    for k, (fut, i) in enumerate(zip(futures, pending)):
        lo, hi = plan.ranges[i]
        retried = False
        failover = False
        try:
            if guarded:
                result, seconds, who = guard(
                    shard_kernels[k], shard_inputs[k], capacity, fut.result,
                    state=CLOSED,
                )
            else:
                result, seconds, who = fut.result()
        except (KernelCrashError, KernelTimeoutError) as exc:
            logger.warning(
                "shard %d/%d of kernel %r died under supervision (%s: %s); "
                "failing over to the Python backend for this shard",
                i + 1, plan.shards, kernel.name, type(exc).__name__, exc,
            )
            retried = failover = True
            start = time.perf_counter()
            result = run_fallback(shard_kernels[k], shard_inputs[k], capacity)
            seconds, who = time.perf_counter() - start, "fallback"
        except Exception as exc:
            if isinstance(exc, ReproError) and not is_retryable(exc):
                # deterministic kernel errors (shape mismatch, capacity
                # exhaustion, source-level CompileError) reproduce
                # identically on a retry — surface them as a serial run
                # would instead of burning a second execution
                raise
            logger.warning(
                "shard %d/%d of kernel %r failed on the %s executor "
                "(%s: %s); retrying in-process",
                i + 1, plan.shards, kernel.name, executor,
                type(exc).__name__, exc,
            )
            _maybe_discard(ex, exc)
            retried = True
            result, seconds, who = _local_task(
                shard_kernels[k], shard_inputs[k], capacity, policy,
            )
        journaled = False
        if durable and journal is not None:
            journaled = journal.write_shard(i, result)
            journal.touch()
        # chaos hook: fires *after* the partial is journaled, so a
        # SIGKILL here models dying between checkpoint and next shard
        resilience.fault_point("shard")
        acc.add(i, result, journaled=journaled)
        stats[i] = ShardStat(
            index=i, lo=lo, hi=hi, seconds=seconds,
            bytes_in=sum(map(shm.tensor_bytes, shard_inputs[k].values())),
            worker=who, retried=retried, failover=failover,
        )
    for i in acc.spilled_indices():
        stats[i] = replace(stats[i], spilled=True)
    ordered = [stats[i] for i in sorted(stats)]
    if stats_out is not None:
        stats_out.extend(ordered)
    if job_out is not None and journal is not None:
        job_out["resumed_shards"] = len(skipped)
        job_out["spills"] = acc.spills
    logger.debug(
        "kernel %r: %d shard(s) on %s over split %r (%s); %.1f ms total "
        "shard time; %d resumed, %d spilled",
        kernel.name, plan.shards, executor, plan.split_attr, plan.kind,
        sum(s.seconds for s in ordered) * 1e3, len(skipped), acc.spills,
    )
    # chaos hook: all shards journaled, merge not yet run — a kill here
    # must resume into a pure-merge job
    resilience.fault_point("merge")
    merged = acc.merge()
    if journal is not None:
        journal.discard()
    return merged

