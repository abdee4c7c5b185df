"""Memory governor: budgeted accumulation and streaming ⊕-merge.

The invariants under test: without a budget the accumulator is the
eager merge verbatim; with a budget, residency is bounded (spills go to
the journal, lowest index first), the streaming merge is bit-identical
to the in-RAM fold, a failed spill pins the partial instead of looping,
and a spilled partial that vanishes surfaces as a typed, retryable
error — never a silently wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.data.tensor import Tensor
from repro.errors import CacheCorruptionError
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime.governor import PartialAccumulator, partial_nbytes
from repro.runtime.jobs import JobJournal, job_signature
from repro.runtime.merge import merge_partials
from repro.runtime.planner import plan_shards, slice_operands
from repro.workloads import dense_vector, sparse_matrix

N = 16


@pytest.fixture(autouse=True)
def job_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))


def _colmix(seed=5, name="gov_colmix", fmt="dense"):
    """A contracted split: Sum_i A[i,j]·u[i] → a vector over j."""
    A = sparse_matrix(N, N, 0.4, attrs=("i", "j"), seed=seed)
    u = dense_vector(N, attr="i", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "u": {"i"}})
    kernel = compile_kernel(
        Sum("i", Var("A") * Var("u")), ctx, {"A": A, "u": u},
        OutputSpec(("j",), (fmt,), (N,)), backend="python", name=name,
    )
    return kernel, {"A": A, "u": u}


def _partials(kernel, tensors, plan):
    """Each shard's partial, computed serially (the oracle's pieces)."""
    out = []
    for lo, hi in plan.ranges:
        sliced = slice_operands(kernel, tensors, plan, lo, hi)
        out.append(kernel._run_single(sliced))
    return out


def _setup(shards=4, split_attr=None, **kw):
    kernel, tensors = _colmix(**kw)
    plan = plan_shards(kernel, tensors, shards, split_attr=split_attr)
    assert plan is not None and plan.shards > 1
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    return kernel, tensors, plan, journal


# ----------------------------------------------------------------------
# no budget: the eager path, untouched
# ----------------------------------------------------------------------
def test_unbudgeted_accumulator_is_the_eager_merge():
    kernel, tensors, plan, journal = _setup()
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=None)
    for i, p in enumerate(_partials(kernel, tensors, plan)):
        acc.add(i, p)
    # a fresh recomputation of the same partials: the eager-fold oracle
    oracle = merge_partials(kernel, plan, _partials(kernel, tensors, plan))
    merged = acc.merge()
    assert acc.spills == 0 and acc.spilled_indices() == set()
    assert np.array_equal(np.asarray(merged.vals), np.asarray(oracle.vals))


# ----------------------------------------------------------------------
# tiny budget: spills happen, residency is bounded, result identical
# ----------------------------------------------------------------------
def test_budget_spills_and_streams_bit_identically():
    kernel, tensors, plan, journal = _setup()
    parts = _partials(kernel, tensors, plan)
    largest = max(partial_nbytes(p) for p in parts)
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=1.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    assert acc.spills >= 1
    assert acc.spilled_indices()  # lowest-index partials went to disk
    # residency can overshoot by at most one partial before eviction
    assert acc.peak_resident <= 1.0 + 2 * largest
    oracle = merge_partials(kernel, plan, _partials(kernel, tensors, plan))
    merged = acc.merge()
    assert np.array_equal(np.asarray(merged.vals), np.asarray(oracle.vals))
    assert merged.vals.dtype == oracle.vals.dtype


def test_sparse_contracted_merge_folds_one_partial_at_a_time(monkeypatch):
    """Streaming means the COO copies too: no fold may see more rows
    than the running result plus the one partial just loaded (stacking
    every partial first would put all four in one call)."""
    kernel, tensors, plan, journal = _setup(name="gov_sparse", fmt="sparse")
    parts = _partials(kernel, tensors, plan)
    oracle = merge_partials(kernel, plan, _partials(kernel, tensors, plan))
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=1.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    assert acc.spilled_indices()
    events = []
    build, take = Tensor.from_coo.__func__, acc._take

    def from_coo(cls, attrs, formats, dims, coords, values, *rest, **kw):
        events.append(("fold", len(values)))
        return build(cls, attrs, formats, dims, coords, values, *rest, **kw)

    monkeypatch.setattr(Tensor, "from_coo", classmethod(from_coo))
    monkeypatch.setattr(
        acc, "_take", lambda i: events.append(("load", i)) or take(i))
    merged = acc.merge()
    assert [kind for kind, _ in events] == [
        "load", "load", "fold", "load", "fold", "load", "fold"]
    widest = max(len(p.to_coo()[1]) for p in parts)
    assert all(rows <= len(oracle.to_coo()[1]) + widest
               for kind, rows in events if kind == "fold")
    assert np.array_equal(merged.pos[0], oracle.pos[0])
    assert np.array_equal(merged.crd[0], oracle.crd[0])
    assert np.array_equal(merged.vals, oracle.vals)
    assert merged.vals.dtype == oracle.vals.dtype


def test_spill_evicts_lowest_index_first():
    kernel, tensors, plan, journal = _setup()
    parts = _partials(kernel, tensors, plan)
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=1.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    spilled = sorted(acc.spilled_indices())
    assert spilled == list(range(len(spilled)))  # a prefix of the indices


def test_one_partial_always_stays_resident():
    kernel, tensors, plan, journal = _setup()
    parts = _partials(kernel, tensors, plan)
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=0.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    assert len(acc._resident) >= 1


def test_failed_spill_pins_the_partial(tmp_path):
    """An unwritable journal must degrade (partial stays resident),
    never drop the result or spin on the same victim."""
    kernel, tensors, plan, _ = _setup()
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    journal = JobJournal(
        job_signature(kernel, plan, tensors), root=blocker / "sub")
    journal.ensure(plan)
    assert not journal.writable
    parts = _partials(kernel, tensors, plan)
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=1.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    assert acc.spills == 0 and len(acc._resident) == len(parts)
    oracle = merge_partials(kernel, plan, _partials(kernel, tensors, plan))
    merged = acc.merge()
    assert np.array_equal(np.asarray(merged.vals), np.asarray(oracle.vals))


def test_missing_spilled_partial_is_a_typed_error():
    kernel, tensors, plan, journal = _setup()
    parts = _partials(kernel, tensors, plan)
    acc = PartialAccumulator(kernel, plan, journal, budget_bytes=1.0)
    for i, p in enumerate(parts):
        acc.add(i, p)
    victim = min(acc.spilled_indices())
    journal._shard_path(victim).unlink()
    with pytest.raises(CacheCorruptionError):
        acc.merge()


# ----------------------------------------------------------------------
# end to end through run_sharded
# ----------------------------------------------------------------------
def test_run_sharded_under_budget_matches_oracle(monkeypatch):
    kernel, tensors = _colmix(name="gov_e2e")
    # the oracle is the unbudgeted sharded run: same shard partials,
    # same left fold, everything resident
    oracle = kernel.run_sharded(tensors, executor="serial", shards=4)
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0.000001")
    stats = []
    job = {}
    result = kernel.run_sharded(
        tensors, executor="serial", shards=4, stats_out=stats, job_out=job)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert job["spills"] >= 1
    assert any(s.spilled for s in stats)


def test_scalar_contraction_streams(monkeypatch):
    u = dense_vector(N, attr="j", seed=2)
    v = dense_vector(N, attr="j", seed=3)
    ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
        backend="python", name="gov_dot",
    )
    oracle = kernel.run_sharded({"u": u, "v": v}, executor="serial", shards=4)
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0.000001")
    result = kernel.run_sharded({"u": u, "v": v}, executor="serial", shards=4)
    assert result == oracle
