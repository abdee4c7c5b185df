"""Sharded parallel execution runtime.

Contraction programs are semiring homomorphisms (Theorem 6.1): a
contraction over an index ``i`` is a ⊕-reduction, so evaluating the
same kernel on a partition of ``i``'s range and combining the partial
results with ⊕ (for contracted indices) or concatenation (for free
indices) is exact — not an approximation — in every semiring.  This
package exploits that:

- :mod:`repro.runtime.planner` picks a split index and nnz-balanced
  range boundaries from the operands' position arrays;
- :mod:`repro.runtime.executor` runs shard tasks on one of three
  backends (``serial`` | ``thread`` | ``pool``) behind a single futures
  API with a bounded task queue;
- :mod:`repro.runtime.merge` combines the partial outputs
  semiring-correctly;
- :mod:`repro.runtime.api` glues them into :func:`run_sharded`;
- :mod:`repro.runtime.policy` resolves, once per call, where and how
  it runs (call argument → handle default → ``REPRO_*`` → built-in);
- :mod:`repro.runtime.route` is :func:`run`, where ``Kernel.run``
  forwards: sharded, or guard → breaker → pool-or-fallback;
- :mod:`repro.runtime.pool` keeps a persistent, pre-warmed set of
  worker processes holding compiled kernels resident
  (``REPRO_POOL_WORKERS``, ``REPRO_POOL_IDLE_TTL``), and is the one
  supervised route: a worker runs under ``RLIMIT_AS``
  (``REPRO_KERNEL_MEM_MB``) and a wall-clock deadline
  (``REPRO_KERNEL_DEADLINE``), so a segfault or runaway loop becomes a
  typed error instead of host death (``REPRO_SUPERVISE``); a process
  that owns no pool runs a supervised call on a one-worker pool that
  lives for the call;
- :mod:`repro.runtime.breaker` quarantines kernels that keep dying
  under supervision behind a circuit breaker that serves the
  pure-Python backend until a backoff re-probe succeeds;
- :mod:`repro.runtime.shm` is the zero-copy data plane under it:
  operands and results cross the process boundary as shared-memory
  descriptors, not pickles (``REPRO_SHM_THRESHOLD``);
- :mod:`repro.runtime.jobs` checkpoints completed shard partials to an
  atomic, checksummed on-disk journal keyed by a deterministic job
  signature (``REPRO_DURABLE``, ``REPRO_JOB_DIR``), so a run killed
  mid-job resumes instead of restarting;
- :mod:`repro.runtime.governor` bounds resident partial memory
  (``REPRO_MEM_BUDGET_MB``) by spilling to the journal and merging
  with a streaming incremental ⊕-fold — larger-than-RAM contractions.

The compiler never imports this package (``repro/__init__.py`` binds
it, DESIGN.md §4).  It is a lazy façade (PEP 562): a name below is
imported from its submodule on first touch, so an in-process
``Kernel.run`` does not pay for ``multiprocessing`` and the pool.
"""

import importlib

#: public name → the submodule that defines it
_EXPORTS = {
    "ShardStat": "api", "run_sharded": "api",
    "CircuitBreaker": "breaker",
    # the process-wide instance: the plain name ``breaker`` would shadow
    # the submodule
    "circuit_breaker": "breaker",
    "Executor": "executor", "PoolExecutor": "executor",
    "SerialExecutor": "executor", "ThreadExecutor": "executor",
    "discard_shared_executor": "executor", "get_executor": "executor",
    "get_shared_executor": "executor",
    "register_runtime_shutdown": "executor",
    "shutdown_shared_executors": "executor",
    "shutdown_shared_runtime": "executor",
    "PartialAccumulator": "governor", "partial_nbytes": "governor",
    "JobJournal": "jobs", "fingerprint_tensor": "jobs", "gc_jobs": "jobs",
    "job_root": "jobs", "job_signature": "jobs",
    "merge_partials": "merge",
    "ShardPlan": "planner", "plan_shards": "planner",
    "slice_operands": "planner",
    "PoolStats": "pool", "PoolUnavailableError": "pool",
    "WorkerPool": "pool", "get_shared_pool": "pool", "pool_key": "pool",
    "run_pooled": "pool", "run_supervised": "pool",
    "shutdown_shared_pool": "pool",
    "run": "route",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = getattr(module, "breaker" if name == "circuit_breaker" else name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
