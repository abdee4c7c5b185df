"""Unit tests for the sharded runtime: planner, slicing, executors,
merge, environment routing, and per-shard fault fallback."""

from __future__ import annotations

import logging
import os
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.compiler import Op, TFLOAT, TINT
from repro.compiler.formats import FunctionInput
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.compiler.scalars import scalar_ops_for
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime import api as api_mod
from repro.runtime.executor import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.runtime.planner import candidate_splits, plan_shards, slice_operands
from repro.runtime.policy import IN_PROCESS, resolve, worker_count
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix, sparse_vector

N = 24


def spmv_kernel(n: int = N, seed: int = 7, backend: str = "python", **build):
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=seed)
    x = dense_vector(n, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        semiring=FLOAT, backend=backend, name="rt_spmv", **build,
    )
    return kernel, {"A": A, "x": x}


def dot_kernel(n: int = N, seed: int = 3):
    u = sparse_vector(n, 0.5, attr="j", seed=seed)
    v = dense_vector(n, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
        semiring=FLOAT, backend="python", name="rt_dot",
    )
    return kernel, {"u": u, "v": v}


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_spmv_splits_free_on_rows(self):
        kernel, tensors = spmv_kernel()
        cands = candidate_splits(kernel)
        assert [(a, c.kind) for a, c in cands] == [("i", "free")]
        assert cands[0][1].requires == ()  # concatenation needs no ⊕ laws
        plan = plan_shards(kernel, tensors, 4)
        assert plan is not None and plan.kind == "free"
        assert plan.split_attr == "i"
        assert plan.certificate is not None
        assert plan.certificate.split_attr == "i"
        # windows tile [0, N) exactly, in order
        assert plan.ranges[0][0] == 0 and plan.ranges[-1][1] == N
        for (_, hi), (lo, _) in zip(plan.ranges[:-1], plan.ranges[1:]):
            assert hi == lo

    def test_dot_splits_contracted(self):
        kernel, tensors = dot_kernel()
        plan = plan_shards(kernel, tensors, 3)
        assert plan is not None
        assert (plan.split_attr, plan.kind) == ("j", "contracted")

    def test_inner_attr_rejected(self):
        kernel, tensors = spmv_kernel()
        # j sits at A's inner level: an explicit request fails loudly
        with pytest.raises(ValueError, match="not splittable"):
            plan_shards(kernel, tensors, 2, split_attr="j")

    def test_nnz_balanced_boundaries(self):
        # all nonzeros in the top quarter of the rows: balanced cuts
        # must land inside that quarter, not at dim/2
        n = 32
        entries = {(i, j): 1.0 for i in range(8) for j in range(n)}
        from repro.data import Tensor

        A = Tensor.from_entries(("i", "j"), ("dense", "sparse"), (n, n), entries)
        x = dense_vector(n, attr="j", seed=1)
        ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
            OutputSpec(("i",), ("dense",), (n,)),
            semiring=FLOAT, backend="python", name="rt_skew",
        )
        plan = plan_shards(kernel, tensors={"A": A, "x": x}, shards=2)
        lo, hi = plan.ranges[0]
        assert hi <= 8, f"first cut at {hi}, expected within the dense block"

    def test_shards_clamped_to_dim(self):
        kernel, tensors = spmv_kernel()
        plan = plan_shards(kernel, tensors, 1000)
        assert plan.shards <= N

    def test_slice_operands_partitions_rows(self):
        kernel, tensors = spmv_kernel()
        plan = plan_shards(kernel, tensors, 4)
        seen = {}
        for lo, hi in plan.ranges:
            shard = slice_operands(kernel, tensors, plan, lo, hi)
            assert shard["x"] is tensors["x"]          # untouched operand
            assert shard["A"].dims[0] == hi - lo
            for (i, j), v in shard["A"].to_dict().items():
                seen[(i + lo, j)] = v
        assert seen == tensors["A"].to_dict()


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_serial_inline(self):
        with SerialExecutor() as ex:
            assert ex.submit(lambda a, b: a + b, 2, 3).result() == 5

    def test_serial_future_carries_exception(self):
        def boom():
            raise RuntimeError("shard failed")

        with SerialExecutor() as ex:
            fut = ex.submit(boom)
        with pytest.raises(RuntimeError, match="shard failed"):
            fut.result()

    def test_thread_pool_runs_all(self):
        with ThreadExecutor(workers=2) as ex:
            futures = [ex.submit(lambda k=k: k * k) for k in range(10)]
            assert [f.result() for f in futures] == [k * k for k in range(10)]

    def test_bounded_queue_progresses(self):
        # queue bound far below the task count: submit must block and
        # drain rather than deadlock
        with ThreadExecutor(workers=2, queue_bound=2) as ex:
            futures = [ex.submit(lambda k=k: k) for k in range(20)]
            assert sorted(f.result() for f in futures) == list(range(20))

    def test_unknown_name_degrades_to_serial(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            ex = get_executor("gpu")
        assert ex.name == "serial"
        assert any("unknown executor" in r.message for r in caplog.records)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert worker_count() == 3
        assert worker_count(5) == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert worker_count(5) == 5


# ----------------------------------------------------------------------
# sharded runs, merge, routing
# ----------------------------------------------------------------------
class TestRunSharded:
    def test_free_split_matches_oracle(self):
        kernel, tensors = spmv_kernel()
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor="thread", shards=4, workers=2)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))
        assert len(kernel.last_shard_stats) == 4
        assert all(s.seconds >= 0 and s.bytes_in > 0
                   for s in kernel.last_shard_stats)

    def test_contracted_scalar_matches_oracle(self):
        kernel, tensors = dot_kernel()
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor="serial", shards=5)
        assert got == pytest.approx(ref)

    def test_contracted_sparse_output(self):
        # y(j) = Σ_i A(i,j)·u(i): the split index i is contracted while
        # the output is a sparse vector — exercises the dict-merge path
        n = 16
        A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=11)
        u = sparse_vector(n, 0.6, attr="i", seed=12)
        ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "u": {"i"}})
        kernel = compile_kernel(
            Sum("i", Var("A") * Var("u")), ctx, {"A": A, "u": u},
            OutputSpec(("j",), ("sparse",), (n,)),
            semiring=FLOAT, backend="python", name="rt_colmix",
        )
        tensors = {"A": A, "u": u}
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor="serial", shards=4)
        assert ref.to_dict() == pytest.approx(got.to_dict())

    def test_csr_output_free_split(self):
        n = 20
        A = sparse_matrix(n, n, 0.25, attrs=("i", "j"), seed=21)
        B = sparse_matrix(n, n, 0.25, attrs=("i", "j"), seed=22)
        ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "B": {"i", "j"}})
        kernel = compile_kernel(
            Var("A") * Var("B"), ctx, {"A": A, "B": B},
            OutputSpec(("i", "j"), ("dense", "sparse"), (n, n)),
            semiring=FLOAT, backend="python", name="rt_emul",
        )
        tensors = {"A": A, "B": B}
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor="serial", shards=3)
        assert ref.to_dict() == got.to_dict()
        assert np.array_equal(ref.pos[1], got.pos[1])

    def test_unsplittable_degrades_to_single_run(self):
        # a pure dense-vector scale has no sliceable operand pair:
        # x(i) alone is splittable, so pick a 1-long dim to force the
        # no-plan path instead
        kernel, tensors = spmv_kernel(n=1)
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor="thread", shards=4)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))

    def test_compile_kernel_parallel_default(self):
        n = N
        A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=7)
        x = dense_vector(n, attr="j", seed=8)
        ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
            OutputSpec(("i",), ("dense",), (n,)),
            semiring=FLOAT, backend="python", name="rt_spmv_par",
            parallel="serial", workers=2,
        )
        assert (kernel.parallel, kernel.workers) == ("serial", 2)
        kernel.run({"A": A, "x": x})
        assert len(kernel.last_shard_stats) > 1

    def test_shard_failure_retries_in_process(self, monkeypatch, caplog):
        kernel, tensors = spmv_kernel()
        ref = kernel._run_single(tensors)
        real = api_mod._local_task
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected shard fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(api_mod, "_local_task", flaky)
        with caplog.at_level(logging.WARNING, logger="repro"):
            got = kernel.run_sharded(tensors, executor="serial", shards=3)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))
        assert kernel.last_shard_stats[0].retried
        assert sum(s.retried for s in kernel.last_shard_stats) == 1
        assert any("retrying in-process" in r.message for r in caplog.records)

    def test_broken_pool_is_evicted_and_run_still_succeeds(
            self, monkeypatch, caplog):
        # A pool broken before submit (a worker killed under a previous
        # call) raises BrokenExecutor from submit itself; the run must
        # fall back shard-by-shard and evict the poisoned pool so the
        # next call rebuilds a fresh one.
        from concurrent.futures import BrokenExecutor

        from repro.runtime import executor as ex_mod

        kernel, tensors = spmv_kernel()
        ref = kernel._run_single(tensors)

        class BrokenPool(ex_mod.Executor):
            name = "thread"

            def _submit(self, fn, *args, **kwargs):
                raise BrokenExecutor("pool is dead")

        broken = BrokenPool(workers=2)
        key = ("thread", 2)
        monkeypatch.setitem(ex_mod._SHARED, key, broken)
        with caplog.at_level(logging.WARNING, logger="repro"):
            got = kernel.run_sharded(
                tensors, executor="thread", workers=2, shards=3)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))
        assert all(s.retried for s in kernel.last_shard_stats)
        assert any("discarding it" in r.message for r in caplog.records)
        assert key not in ex_mod._SHARED
        got2 = kernel.run_sharded(
            tensors, executor="thread", workers=2, shards=3)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got2.vals))
        assert not any(s.retried for s in kernel.last_shard_stats)
        fresh = ex_mod._SHARED.get(key)
        assert fresh is not None and fresh is not broken

    def test_function_input_downgrades_pool(self, caplog):
        ops = scalar_ops_for(FLOAT)
        even = Op(
            "even", (TINT,), TFLOAT,
            spec=lambda i: 1.0 if i % 2 == 0 else 0.0,
            c_expr=lambda i: f"(({i}) % 2 == 0 ? 1.0 : 0.0)",
        )
        p = FunctionInput("p", ("j",), even, ops)
        A = sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=5)
        ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "p": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("p")), ctx, {"A": A, "p": p},
            OutputSpec(("i",), ("dense",), (N,)),
            semiring=FLOAT, backend="python", name="rt_fninput",
        )
        assert kernel.recipe is None
        tensors = {"A": A}
        ref = kernel._run_single(tensors)
        with caplog.at_level(logging.WARNING, logger="repro"):
            got = kernel.run_sharded(tensors, executor="pool", shards=2)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))
        assert any("downgrading the pool executor" in r.message
                   for r in caplog.records)
        assert {s.worker for s in kernel.last_shard_stats} == {"local"}


# ----------------------------------------------------------------------
# execution policy: one value, one precedence
# ----------------------------------------------------------------------
POLICY_KNOBS = (
    "REPRO_PARALLEL", "REPRO_WORKERS", "REPRO_SUPERVISE",
    "REPRO_KERNEL_DEADLINE", "REPRO_KERNEL_MEM_MB", "REPRO_DURABLE", "REPRO_MEM_BUDGET_MB",
    "REPRO_SHM_THRESHOLD", "REPRO_POOL", "REPRO_POOL_WORKERS",
)
SHARD = dict(parallel="serial")
SUP = dict(parallel=False, supervised=True)

#: (field, call arguments, handle defaults, environment, expected):
#: argument beats handle default beats REPRO_* beats built-in
PRECEDENCE = [
    ("executor", dict(parallel="thread"), dict(parallel="serial"),
     {"REPRO_PARALLEL": "pool"}, "thread"),
    ("executor", {}, dict(parallel="serial"), {"REPRO_PARALLEL": "thread"},
     "serial"),
    ("executor", {}, {}, {"REPRO_PARALLEL": "serial"}, "serial"),
    ("executor", {}, {}, {}, None),
    # parallel=False beats every default
    ("executor", dict(parallel=False), dict(parallel="serial"),
     {"REPRO_PARALLEL": "thread"}, None),
    ("workers", dict(SHARD, workers=3), dict(workers=2), {}, 3),
    ("workers", SHARD, dict(workers=2), {}, 2),
    ("workers", SHARD, {}, {}, max(1, os.cpu_count() or 1)),
    # the one inversion: REPRO_WORKERS caps over the argument
    ("workers", dict(SHARD, workers=3), dict(workers=2),
     {"REPRO_WORKERS": "5"}, 5),
    ("shards", dict(SHARD, workers=3, shards=7), {}, {}, 7),
    ("shards", dict(SHARD, workers=3), {}, {}, 3),
    ("supervised", dict(SHARD, supervised=False), dict(supervised=True),
     {"REPRO_SUPERVISE": "1"}, False),
    ("supervised", SHARD, dict(supervised=True), {"REPRO_SUPERVISE": "0"},
     True),
    ("supervised", SHARD, {}, {"REPRO_SUPERVISE": "1"}, True),
    ("supervised", SHARD, {}, {}, False),     # auto: Python-backed
    ("deadline", dict(SUP, deadline=2.5), {}, {"REPRO_KERNEL_DEADLINE": "9"},
     2.5),
    ("deadline", SUP, {}, {"REPRO_KERNEL_DEADLINE": "9"}, 9.0),
    ("deadline", SUP, {}, {}, 60.0),
    # an unsupervised route arms no kill of its own ...
    ("deadline", dict(parallel="pool"), {}, {"REPRO_KERNEL_DEADLINE": "9"},
     None),
    # ... but carries the caller's
    ("deadline", dict(parallel="pool", deadline=2.5), {}, {}, 2.5),
    ("mem_mb", dict(SUP, mem_mb=256), {}, {"REPRO_KERNEL_MEM_MB": "512"}, 256),
    ("mem_mb", SUP, {}, {"REPRO_KERNEL_MEM_MB": "512"}, 512),
    ("mem_mb", SUP, {}, {}, None),
    ("pool_route", dict(SUP, pool_route=True), {}, {}, True),
    ("pool_route", SUP, {}, {"REPRO_POOL": "1"}, True),
    # pool workers fix their rlimit at spawn: a per-call cap pins the fork
    ("pool_route", dict(SUP, mem_mb=256), {}, {"REPRO_POOL": "1"}, False),
    ("pool_route", SUP, {}, {}, False),
    ("durable", dict(SHARD, durable=False), {}, {"REPRO_DURABLE": "1"}, False),
    ("durable", dict(SHARD, resume="job_x"), {}, {}, True),
    ("durable", SHARD, {}, {"REPRO_DURABLE": "1"}, True),
    ("durable", SHARD, {}, {}, False),
    ("budget_mb", SHARD, {}, {"REPRO_MEM_BUDGET_MB": "64"}, 64.0),
    ("budget_mb", SHARD, {}, {}, None),
    ("threshold", dict(parallel="pool"), {}, {"REPRO_SHM_THRESHOLD": "0"}, 0),
    ("threshold", dict(parallel="pool"), {}, {},
     16384),
    ("pool_route", SUP, {}, {"REPRO_POOL": "0"}, False),
    # a kernel without a recipe always forks
    ("pool_route", SUP, dict(recipe=None), {"REPRO_POOL": "1"}, False),
]
#: the same, in a process that owns an open shared pool: unset
#: REPRO_POOL means "use it"
OWNS_POOL = [
    ("pool_route", SUP, {}, {}, True),
    ("pool_route", SUP, {}, {"REPRO_POOL": "0"}, False),
    ("pool_route", SUP, {}, {"REPRO_POOL": "1"}, True),
    ("pool_route", dict(SUP, mem_mb=256), {}, {}, False),
    ("pool_route", SUP, dict(recipe=None), {}, False),
    ("pool_route", dict(SUP, pool_route=False), {}, {}, False),
]
POLICY_ROWS = ([(*row, False) for row in PRECEDENCE]
               + [(*row, True) for row in OWNS_POOL])


class TestPolicy:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        # CI jobs export several of these for the whole suite
        for knob in POLICY_KNOBS:
            monkeypatch.delenv(knob, raising=False)

    @pytest.mark.parametrize(
        "field,args,defaults,env,expected,owns_pool", POLICY_ROWS,
        ids=[f"{row[0]}-{k}" for k, row in enumerate(POLICY_ROWS)],
    )
    def test_precedence(self, monkeypatch, field, args, defaults, env,
                        expected, owns_pool):
        from repro.runtime import pool as pool_mod

        kernel, tensors = spmv_kernel()
        handle = kernel._view(**defaults) if defaults else kernel
        for knob, value in env.items():
            monkeypatch.setenv(knob, value)
        if owns_pool:
            pool_mod.get_shared_pool(1)     # the fixture shuts it down
        assert pool_mod.shared_pool_open() == owns_pool
        assert getattr(resolve(handle, **args), field) == expected
        if field == "executor":
            # and Kernel.run goes where the policy says
            got = handle.run(tensors, **args)
            assert bool(handle.last_shard_stats) == (expected is not None)
            assert np.array_equal(
                np.asarray(got.vals),
                np.asarray(kernel._run_single(tensors).vals))

    def test_in_process_run_reads_two_variables(self, monkeypatch):
        kernel, _ = spmv_kernel()
        reads = self._count_reads(monkeypatch)
        assert resolve(kernel) is IN_PROCESS
        assert dict(reads) == {"REPRO_PARALLEL": 1, "REPRO_SUPERVISE": 1}

    def test_sharded_supervised_run_reads_each_knob_once(self, monkeypatch):
        # the policy is resolved at the top of the call and handed to
        # every shard: four supervised shards, one read per knob
        kernel, tensors = spmv_kernel()
        ref = kernel._run_single(tensors)
        reads = self._count_reads(monkeypatch)
        got = kernel.run_sharded(
            tensors, executor="serial", shards=4, supervised=True)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))
        assert len(kernel.last_shard_stats) == 4
        assert reads["REPRO_KERNEL_DEADLINE"] == 1
        assert max(reads.values()) == 1, dict(reads)

    @staticmethod
    def _count_reads(monkeypatch) -> Counter:
        reads: Counter = Counter()

        class CountingEnv(dict):
            def get(self, key, default=None):
                if key in POLICY_KNOBS:
                    reads[key] += 1
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", CountingEnv(os.environ))
        return reads

    def test_builds_keep_their_own_defaults(self):
        # the build cache hands every caller of one expression the same
        # kernel; what each asked for must not reach the others
        from repro.autotune import decision_cache, reset_profile_cache

        try:
            k1, _ = spmv_kernel(parallel="thread", workers=2)
            k2, _ = spmv_kernel()
            k3, _ = spmv_kernel(tune="auto")
            k4, _ = spmv_kernel(parallel="serial")
        finally:
            decision_cache.clear_memo()
            reset_profile_cache()
        assert k1._kernel is k2._kernel is k4._kernel    # one artifact
        assert (k1.parallel, k1.workers) == ("thread", 2)
        assert (k2.parallel, k2.workers, k2.tune_decision) == (None,) * 3
        assert k3.tune_decision is not None and k1.tune_decision is None
        assert (k4.parallel, k4.workers) == ("serial", None)
        # a build that asks for nothing is the shared object itself
        assert spmv_kernel()[0] is k2

    def test_breaker_fallback_leaves_the_held_kernel_alone(self, monkeypatch):
        # a C kernel's Python twin comes out of the same build cache as
        # the Python-backed kernel a user holds; "the fallback never
        # supervises" must not become that user's policy
        held, tensors = spmv_kernel()
        c_kernel, _ = spmv_kernel(backend="c")
        twin = c_kernel._fallback_kernel()
        assert twin._kernel is held._kernel and twin.supervised is False
        assert held.supervised is None
        monkeypatch.setenv("REPRO_SUPERVISE", "1")
        assert resolve(held, parallel=False).supervised is True


class TestCBackend:
    """The C backend sharded: with a toolchain these are genuinely
    GIL-releasing ctypes kernels; without one the build falls back to
    the Python backend (logged) and sharding must still be exact."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_c_backend_sharded_matches_oracle(self, executor):
        kernel, tensors = spmv_kernel(backend="c")
        ref = kernel._run_single(tensors)
        got = kernel.run_sharded(tensors, executor=executor, shards=4, workers=2)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))


class TestBatch:
    def test_batch_preserves_order(self):
        kernel, _ = spmv_kernel()
        runs = []
        for seed in range(6):
            A = sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=seed)
            x = dense_vector(N, attr="j", seed=seed + 100)
            runs.append({"A": A, "x": x})
        expected = [kernel._run_single(r).vals for r in runs]
        got = kernel.run_batch(runs, executor="thread", workers=2)
        for want, have in zip(expected, got):
            assert np.array_equal(np.asarray(want), np.asarray(have.vals))
        assert len(kernel.last_shard_stats) == len(runs)


class TestRecipe:
    def test_recipe_pickles_and_rebuilds(self):
        kernel, tensors = spmv_kernel()
        assert kernel.recipe is not None
        clone = pickle.loads(pickle.dumps(kernel.recipe)).build()
        ref = kernel._run_single(tensors)
        got = clone._run_single(tensors)
        assert np.array_equal(np.asarray(ref.vals), np.asarray(got.vals))

    def test_restored_kernel_keeps_recipe(self):
        # a second identical build returns the memoized kernel and must
        # still carry a recipe and the builder's parallel stamp
        k1, _ = spmv_kernel()
        k2, _ = spmv_kernel()
        assert k2.recipe is not None

    def test_with_output_dims_shares_backend(self):
        kernel, tensors = spmv_kernel()
        clone = kernel.with_output_dims((10,))
        assert clone._kernel is kernel._kernel
        assert clone.output.dims == (10,)
        assert kernel.output.dims == (N,)

    def test_with_output_dims_rejects_scalar(self):
        kernel, _ = dot_kernel()
        with pytest.raises(Exception):
            kernel.with_output_dims((4,))


class TestLoggerDedup:
    def test_handler_installed_once(self):
        from repro.compiler.resilience import _get_logger

        first = _get_logger()
        again = _get_logger()
        assert first is again
        named = [h for h in first.handlers
                 if getattr(h, "name", None) == "repro-default"]
        assert len(named) == 1
