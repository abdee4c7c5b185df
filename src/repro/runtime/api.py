"""Sharded execution: plan → schedule → merge.

:func:`run_sharded` is the engine behind
:meth:`repro.compiler.kernel.Kernel.run_sharded` and the
``REPRO_PARALLEL`` environment routing; :func:`run_batch` runs one
kernel over many independent input bindings (the many-small-kernels
case where sharding a single run is not worth it but the pool is).

Per-shard resilience mirrors the build-time story of
:mod:`repro.compiler.resilience`: a shard that fails on its executor
(a crashed worker process, an unpicklable surprise, a transient OS
error) is retried once in the parent on the serial path, with a logged
warning — the parallel runtime degrades toward the oracle rather than
failing the whole run.  Genuine kernel errors (shape mismatches,
capacity exhaustion with ``auto_grow`` off) reproduce identically on
the retry and surface to the caller as they would on a serial run.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, replace
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
from repro.runtime import pool as pool_mod, shm, worker as worker_mod
from repro.runtime.executor import discard_shared_executor, get_shared_executor
from repro.runtime.governor import PartialAccumulator
from repro.runtime.jobs import JobJournal, job_signature
from repro.runtime.planner import plan_shards, slice_operands


@dataclass(frozen=True)
class ShardStat:
    """Timing/volume record for one shard (or one batch item)."""

    index: int
    lo: int
    hi: int
    seconds: float
    bytes_in: int
    worker: Union[int, str]     # pid (process) or a backend tag
    retried: bool = False
    #: this shard's supervised run crashed/timed out and the result was
    #: served by the pure-Python fallback instead
    failover: bool = False
    #: the partial came from a prior run's job journal; not re-executed
    skipped: bool = False
    #: the partial was evicted to the journal by the memory governor
    spilled: bool = False


def _local_task(kernel, tensors, capacity, auto_grow, max_capacity,
                supervised=None, deadline=None):
    start = time.perf_counter()
    result = kernel._run_guarded(
        tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity,
        supervised=supervised, deadline=deadline,
    )
    return result, time.perf_counter() - start, "local"


def _failover_task(kernel, tensors, capacity, auto_grow, max_capacity, cause):
    """Serve one crashed/timed-out shard from the Python fallback."""
    start = time.perf_counter()
    result = kernel._run_fallback(
        tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity,
        cause=cause,
    )
    return result, time.perf_counter() - start, "fallback"


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


def _resolve_executor(kernel, executor: str) -> str:
    """Downgrade ``process``/``pool`` when the kernel cannot cross a
    process boundary (no recipe: a FunctionInput binding holds an
    arbitrary callable)."""
    if executor in ("process", "pool") and kernel.recipe is None:
        logger.warning(
            "kernel %r has no rebuild recipe (function-valued input); "
            "downgrading the %s executor to threads", kernel.name, executor,
        )
        return "thread"
    return executor


def _pool_deadline(kernel, supervised, deadline=None) -> Optional[float]:
    """Wall deadline for pooled calls: pooled workers are always
    crash-isolated, but the deadline kill is only armed when the
    supervision policy asks for it (matching the fork supervisor).
    An explicit caller ``deadline`` — a request budget handed down by
    the serving layer — always arms the kill, supervised or not: the
    worker is already isolated and the caller has a clock to keep."""
    if deadline is not None:
        return deadline
    if kernel._resolve_supervised(supervised):
        return resilience.kernel_deadline()
    return None


def _pool_dispatch(ex, exports, threshold, kernel, shard_inputs, shard_dims,
                   capacity, auto_grow, max_capacity, deadline):
    """Submit every shard (or batch item) to the worker pool as shm
    descriptors.

    ``exports`` holds the segments of operands that were exported
    *before* they were sliced: a shard's arrays are views into them and
    travel as byte windows, so the per-shard pipe payload is a few
    hundred bytes of descriptor regardless of operand size.  An operand
    it does not name (every batch item brings its own) is exported here.
    """
    pool = pool_mod.get_shared_pool(ex.workers)
    key = pool_mod.pool_key(kernel)
    pool.register_recipe(key, kernel.recipe)
    futures = []
    for st, dims in zip(shard_inputs, shard_dims):
        refs = {
            name: shm.describe_tensor(
                t, exports.get(name) or shm.export_tensor(t, threshold))
            for name, t in st.items()
        }
        futures.append(_submit(
            ex, pool.run_call, key, refs, dims, capacity, auto_grow,
            max_capacity, deadline, threshold,
        ))
    return futures


def run_sharded(
    kernel,
    tensors: Mapping[str, Tensor],
    *,
    capacity: Optional[int] = None,
    auto_grow: bool = False,
    max_capacity: Optional[int] = None,
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
    count.  Per-shard stats land on ``kernel.last_shard_stats`` (and in
    ``stats_out`` when given — the race-free channel under concurrent
    calls).

    A shard whose *supervised* run dies (crash or deadline) is not
    retried in-process — re-running a segfaulting kernel in the host
    defeats the supervision — but failed over to the pure-Python
    backend for that shard alone, marked ``failover=True`` /
    ``worker="fallback"`` in the stats.

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
    n_workers = resilience.worker_count(workers)
    n_shards = int(shards) if shards is not None else n_workers
    plan = plan_shards(kernel, tensors, n_shards, split_attr=split_attr)
    if plan is None or plan.shards <= 1:
        logger.debug(
            "kernel %r: no multi-shard plan (%s); running unsharded",
            kernel.name,
            "no splittable index" if plan is None else "single shard",
        )
        return kernel._run_guarded(
            tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity,
            supervised=supervised, deadline=deadline,
        )

    executor = _resolve_executor(kernel, executor)
    ex = get_shared_executor(executor, n_workers)
    # operands move to shared memory before anything reads them: shards
    # sliced from here on are windows, fingerprints are taken once
    threshold = resilience.shm_threshold()
    exports = {
        name: shm.export_tensor(t, threshold) for name, t in tensors.items()
    } if ex.name == "pool" else {}

    if durable is None:
        durable = resume is not None or resilience.durable_enabled()
    budget_mb = resilience.mem_budget_mb()
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
    if ex.name == "pool":
        futures = _pool_dispatch(
            ex, exports, threshold, kernel, shard_inputs, shard_dims,
            capacity, auto_grow, max_capacity,
            _pool_deadline(kernel, supervised, deadline),
        )
    else:
        futures = []
        for sk, st, dims in zip(shard_kernels, shard_inputs, shard_dims):
            if ex.name == "process":
                futures.append(_submit(
                    ex, worker_mod.run_shard_task, kernel.recipe, st, dims,
                    capacity, auto_grow, max_capacity,
                ))
            else:
                futures.append(_submit(
                    ex, _local_task, sk, st, capacity, auto_grow, max_capacity,
                    supervised, deadline,
                ))
    for k, (fut, i) in enumerate(zip(futures, pending)):
        lo, hi = plan.ranges[i]
        retried = False
        failover = False
        try:
            result, seconds, who = fut.result()
        except (KernelCrashError, KernelTimeoutError) as exc:
            logger.warning(
                "shard %d/%d of kernel %r died under supervision (%s: %s); "
                "failing over to the Python backend for this shard",
                i + 1, plan.shards, kernel.name, type(exc).__name__, exc,
            )
            retried = failover = True
            result, seconds, who = _failover_task(
                shard_kernels[k], shard_inputs[k],
                capacity, auto_grow, max_capacity, exc,
            )
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
                shard_kernels[k], shard_inputs[k],
                capacity, auto_grow, max_capacity, supervised, deadline,
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
    kernel.last_shard_stats = ordered
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


def run_batch(
    kernel,
    runs: Sequence[Mapping[str, Tensor]],
    *,
    capacity: Optional[int] = None,
    auto_grow: bool = False,
    max_capacity: Optional[int] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
) -> List[object]:
    """Run ``kernel`` over many independent input bindings, pool-parallel.

    Results come back in input order.  ``executor=None`` follows
    ``REPRO_PARALLEL`` and falls back to ``serial``.  ``deadline``
    bounds each *item* (not the whole batch) wherever execution is
    crash-isolated.
    """
    if executor is None:
        executor = (
            kernel.parallel or resilience.parallel_backend() or "serial"
        )
    executor = _resolve_executor(kernel, executor)
    n_workers = resilience.worker_count(workers)
    results: List[object] = []
    stats: List[ShardStat] = []
    ex = get_shared_executor(executor, n_workers)
    futures = []
    if ex.name == "pool":
        deadline = _pool_deadline(kernel, None, deadline)
        futures = _pool_dispatch(
            ex, {}, resilience.shm_threshold(), kernel, runs,
            [None] * len(runs), capacity, auto_grow, max_capacity, deadline,
        )
    else:
        for tensors in runs:
            if ex.name == "process":
                futures.append(_submit(
                    ex, worker_mod.run_shard_task, kernel.recipe, tensors,
                    None, capacity, auto_grow, max_capacity,
                ))
            else:
                futures.append(_submit(
                    ex, _local_task, kernel, tensors,
                    capacity, auto_grow, max_capacity, None, deadline,
                ))
    for i, (fut, tensors) in enumerate(zip(futures, runs)):
        retried = False
        try:
            result, seconds, who = fut.result()
        except Exception as exc:
            if isinstance(exc, ReproError) and not is_retryable(exc):
                raise  # deterministic: replaying cannot change the outcome
            logger.warning(
                "batch item %d/%d of kernel %r failed on the %s executor "
                "(%s: %s); retrying in-process",
                i + 1, len(runs), kernel.name, executor,
                type(exc).__name__, exc,
            )
            _maybe_discard(ex, exc)
            retried = True
            result, seconds, who = _local_task(
                kernel, tensors, capacity, auto_grow, max_capacity,
                None, deadline,
            )
        results.append(result)
        stats.append(ShardStat(
            index=i, lo=0, hi=0, seconds=seconds,
            bytes_in=sum(map(shm.tensor_bytes, tensors.values())),
            worker=who, retried=retried,
        ))
    kernel.last_shard_stats = stats
    return results
