"""Thread-safety of ``Kernel.last_shard_stats`` under concurrent runs.

Many threads sharing one compiled kernel (the service pattern the
runtime exists for) race on the per-run stats attribute.  The contract
pinned here: readers never observe a torn/partial list (every snapshot
is some *complete* run's stats), and each caller can get its own run's
records race-free through ``run_sharded(..., stats_out=...)``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime.api import ShardStat
from repro.workloads import dense_vector, sparse_matrix

N = 32
THREADS = 4
RUNS_PER_THREAD = 6


@pytest.fixture
def spmv():
    A = sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=3)
    x = dense_vector(N, attr="j", seed=4)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (N,))
    kernel = compile_kernel(expr, ctx, {"A": A, "x": x}, out,
                            backend="python", name="stats_conc")
    return kernel, {"A": A, "x": x}


def test_concurrent_sharded_runs_never_tear_stats(spmv):
    kernel, tensors = spmv
    oracle = kernel.execute(tensors)
    snapshots = []
    errors = []
    stop = threading.Event()

    def runner():
        try:
            for _ in range(RUNS_PER_THREAD):
                own: list = []
                result = kernel.run_sharded(
                    tensors, executor="thread", shards=2, stats_out=own,
                )
                assert np.array_equal(
                    np.asarray(result.vals), np.asarray(oracle.vals)
                )
                # this call's private stats: complete and well-formed
                assert own and all(isinstance(s, ShardStat) for s in own)
                assert [s.index for s in own] == list(range(len(own)))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            stop.set()

    def reader():
        while not stop.is_set():
            snap = kernel.last_shard_stats
            snapshots.append(snap)

    threads = [threading.Thread(target=runner) for _ in range(THREADS)]
    observer = threading.Thread(target=reader)
    observer.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    observer.join()

    assert not errors, errors
    # every snapshot is a complete run's list: shard indices 0..k-1,
    # never a half-written interleaving (the empty pre-first-run list
    # is legitimate)
    for snap in snapshots:
        assert [s.index for s in snap] == list(range(len(snap)))
        assert all(isinstance(s, ShardStat) for s in snap)


def test_stats_property_returns_a_copy(spmv):
    kernel, tensors = spmv
    kernel.run_sharded(tensors, executor="serial", shards=2)
    first = kernel.last_shard_stats
    assert first
    first.append("sentinel")
    assert "sentinel" not in kernel.last_shard_stats


def test_stats_out_matches_attribute_when_serial(spmv):
    kernel, tensors = spmv
    own: list = []
    kernel.run_sharded(tensors, executor="serial", shards=3, stats_out=own)
    assert own == kernel.last_shard_stats
