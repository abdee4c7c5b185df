"""job_sharded — ``repro.runtime``: sharded, pooled, durable and
supervised execution of one kernel run.

Why: planner, shared-memory export, pool dispatch, merge and journal
do the work here; it guards the "collapse the execution matrix"
refactor and exposes the journaling tax (the same cell runs durable
and not).  ``workers=2`` everywhere: the box has two cores.
"""

from __future__ import annotations

from typing import List

import statistics
import time

from bench import datagen, harness, programs
from bench.harness import Cell
from bench.workloads import Workload

FULL = {
    "spmv": (programs.spmv, dict(n=40_000, nnz=2_400_000)),
    "add": (programs.add, dict(n=20_000, nnz=400_000)),
    "inner": (programs.inner, dict(n=20_000, nnz=1_200_000)),
}
SMOKE = {
    "spmv": (programs.spmv, dict(n=2_000, nnz=40_000)),
    "add": (programs.add, dict(n=1_000, nnz=10_000)),
    "inner": (programs.inner, dict(n=1_000, nnz=20_000)),
}
WORKERS = 2
SHARDS = 4
#: cell → (program, how it is run)
CELLS = {
    "spmv.serial4": ("spmv", dict(executor="serial")),
    "spmv.pool4": ("spmv", dict(executor="pool")),
    "add.pool4": ("add", dict(executor="pool")),
    "inner.pool4": ("inner", dict(executor="pool")),
    "add.pool4.durable": ("add", dict(executor="pool", durable=True)),
    "inner.supervised": ("inner", None),
}


class JobSharded(Workload):
    name = "job_sharded"
    rounds = 10
    samples = 10

    def generate(self, seed: int, smoke: bool) -> None:
        self.programs = {
            name: build(datagen.rng_for(seed, self.name, name), **size)
            for name, (build, size) in (SMOKE if smoke else FULL).items()
        }
        for p in self.programs.values():
            p.compute_expected()

    def setup(self, tag: str, final: bool) -> None:
        self.kernels = {
            name: p.compile(f"js_{name}_{tag}")
            for name, p in self.programs.items()
        }
        # the first pooled call spawns the workers and makes them
        # rebuild the kernel from its recipe (a disk-tier restore)
        t0 = time.perf_counter()
        self._run("spmv.pool4")
        self.pool_boot_s = time.perf_counter() - t0
        for cell in CELLS:
            self._run(cell)

    def teardown(self) -> None:
        from repro.runtime import shutdown_shared_runtime

        shutdown_shared_runtime()

    def _run(self, cell: str):
        name, how = CELLS[cell]
        p, kernel = self.programs[name], self.kernels[name]
        if how is None:
            return kernel.run(p.tensors, p.capacity, supervised=True)
        return kernel.run_sharded(
            p.tensors, p.capacity, workers=WORKERS, shards=SHARDS, **how)

    def cells(self) -> List[Cell]:
        return [
            Cell(cell,
                 lambda cell=cell: self._run(cell),
                 lambda r, want=self.programs[CELLS[cell][0]].expected:
                     programs.matches(r, want),
                 samples=self.samples)
            for cell in CELLS
        ]

    # ------------------------------------------------------------------
    def trace(self, tracer, rounds, untraced):
        from repro.data.tensor import Tensor
        from repro.runtime import run_pooled, run_supervised, shm

        journal_bytes = 0
        # same schedule as the untraced rounds: blocks of consecutive
        # samples per cell (one-by-one interleaving would run every op
        # on caches the previous cell's operands just emptied)
        for _ in range(rounds):
            for cell, (name, how) in CELLS.items():
                p, kernel = self.programs[name], self.kernels[name]
                for _s in range(self.samples):
                    if how is None:
                        tracer.op(cell, tracer.call, "supervisor.run",
                                  run_supervised, kernel, p.tensors, p.capacity)
                    else:
                        size = tracer.op(cell, _traced_sharded, tracer, kernel,
                                         p.tensors, p.capacity, **how)
                        journal_bytes = max(journal_bytes, size or 0)

        # measurements that are differences against the in-process run
        reps = max(5, rounds * self.samples // 2)
        dispatch, supervise = [], []
        for name, p in self.programs.items():
            kernel = self.kernels[name]
            local = _median_ms(lambda: kernel.run(p.tensors, p.capacity, parallel=False), reps)
            pooled = _median_ms(lambda: run_pooled(kernel, p.tensors, p.capacity), reps)
            dispatch.append(pooled - local)
            if name == "inner":
                forked = _median_ms(
                    lambda: run_supervised(kernel, p.tensors, p.capacity), reps)
                supervise.append(forked - local)
            # a first-time export: same arrays, a tensor object that has
            # no segment yet (exports are memoized on the tensor)
            tracer.cell = name
            for _ in range(5):
                for t in p.tensors.values():
                    fresh = Tensor(t.attrs, t.formats, t.dims, t.pos, t.crd,
                                   t.vals, t.semiring)
                    export = tracer.call("shm.export", shm.export_tensor, fresh)
                    if export is not None:
                        export.release()
        out = {
            "pool.dispatch_ms": statistics.median(dispatch),
            "supervisor.overhead_ms": statistics.median(supervise),
            "pool.boot_s": self.pool_boot_s,
            "jobs.journal_bytes": float(journal_bytes),
        }
        if "add.pool4.durable" in untraced and "add.pool4" in untraced:
            out["jobs.journal_overhead_ms"] = (
                untraced["add.pool4.durable"] - untraced["add.pool4"])
        return out


def _median_ms(fn, reps: int) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _traced_sharded(tracer, kernel, tensors, capacity, executor, durable=False) -> int:
    """``run_sharded`` as the runtime runs it: plan and slice, dispatch
    the shards, journal them (durable runs), merge.  Returns the bytes
    the journal held before it was discarded."""
    from repro.compiler import resilience
    from repro.runtime import (
        JobJournal, get_shared_executor, get_shared_pool, job_signature,
        merge_partials, plan_shards, pool_key, shm, slice_operands,
    )

    def plan_and_slice():
        plan = plan_shards(kernel, tensors, SHARDS)
        return plan, [slice_operands(kernel, tensors, plan, lo, hi)
                      for lo, hi in plan.ranges]

    plan, shard_inputs = tracer.call("planner.plan", plan_and_slice)
    shard_dims = [
        (hi - lo,) + tuple(kernel.output.dims[1:]) if plan.kind == "free" else None
        for lo, hi in plan.ranges
    ]
    journal = None
    if durable:
        def open_journal():
            j = JobJournal(job_signature(kernel, plan, tensors))
            j.ensure(plan)
            return j

        journal = tracer.call("jobs.open", open_journal)

    if executor == "serial":
        def dispatch():
            return [
                (kernel.with_output_dims(dims) if dims else kernel).run(
                    st, capacity, parallel=False)
                for st, dims in zip(shard_inputs, shard_dims)
            ]

        partials = tracer.call("serial.dispatch", dispatch)
    else:
        def describe():
            threshold = resilience.shm_threshold()
            exports = {n: shm.export_tensor(t, threshold) for n, t in tensors.items()}
            refs = [{n: shm.describe_tensor(t, exports.get(n)) for n, t in st.items()}
                    for st in shard_inputs]
            return refs, threshold

        refs, threshold = tracer.call("shm.describe", describe)

        def dispatch():
            ex = get_shared_executor("pool", WORKERS)
            pool = get_shared_pool(ex.workers)
            key = pool_key(kernel)
            pool.register_recipe(key, kernel.recipe)
            futures = [
                ex.submit(pool.run_call, key, r, dims, capacity, False, None,
                          None, threshold)
                for r, dims in zip(refs, shard_dims)
            ]
            return [f.result()[0] for f in futures]

        partials = tracer.call("pool.dispatch", dispatch)

    held = 0
    if journal is not None:
        def write_all():
            for i, partial in enumerate(partials):
                journal.write_shard(i, partial)
                journal.touch()

        tracer.call("jobs.journal", write_all)
        held = harness.dir_bytes(str(journal.dir))
    tracer.call("merge", merge_partials, kernel, plan, partials)
    if journal is not None:
        tracer.call("jobs.discard", journal.discard)
    return held


WORKLOAD = JobSharded
