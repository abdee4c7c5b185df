"""Unit tests for the durable job journal.

The journal is the crash-safety substrate of durable sharded runs:
signatures must be deterministic (that *is* the resume key), shard
files must round-trip bit-identically, corruption must cost a
re-execution (quarantine) and never a wrong answer, and an unusable
journal directory must degrade durability without failing the run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.runtime.jobs import (
    JobJournal,
    fingerprint_tensor,
    gc_jobs,
    job_root,
    job_signature,
)
from repro.runtime.planner import plan_shards
from repro.workloads import dense_vector, sparse_matrix

N = 16


@pytest.fixture(autouse=True)
def job_dir(tmp_path, monkeypatch):
    """Point the journal root at a per-test directory."""
    root = tmp_path / "jobs"
    monkeypatch.setenv("REPRO_JOB_DIR", str(root))
    return root


def _spmv(seed=7, name="jobs_spmv"):
    A = sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=seed)
    x = dense_vector(N, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (N,)), backend="python", name=name,
    )
    return kernel, {"A": A, "x": x}


def _planned(shards=4, **kw):
    kernel, tensors = _spmv(**kw)
    plan = plan_shards(kernel, tensors, shards)
    assert plan is not None and plan.shards > 1
    return kernel, tensors, plan


# ----------------------------------------------------------------------
# signatures: deterministic, content-sensitive
# ----------------------------------------------------------------------
def test_signature_is_deterministic():
    kernel, tensors, plan = _planned()
    assert job_signature(kernel, plan, tensors) == \
        job_signature(kernel, plan, tensors)


def test_signature_tracks_operand_content():
    kernel, tensors, plan = _planned()
    sig = job_signature(kernel, plan, tensors)
    mutated = dict(tensors)
    vals = np.array(tensors["x"].vals, copy=True)
    vals[0] += 1.0
    from repro.data.tensor import Tensor

    mutated["x"] = Tensor(
        tensors["x"].attrs, tensors["x"].formats, tensors["x"].dims,
        dict(tensors["x"].pos), dict(tensors["x"].crd), vals,
        kernel.ops.semiring,
    )
    assert job_signature(kernel, plan, mutated) != sig


def test_signature_tracks_plan_geometry():
    kernel, tensors, _ = _planned()
    p2 = plan_shards(kernel, tensors, 2)
    p4 = plan_shards(kernel, tensors, 4)
    assert job_signature(kernel, p2, tensors) != \
        job_signature(kernel, p4, tensors)


def test_fingerprint_covers_raw_arrays():
    _, tensors, _ = _planned()
    A = tensors["A"]
    assert fingerprint_tensor(A) == fingerprint_tensor(A)
    assert fingerprint_tensor(A) != fingerprint_tensor(tensors["x"])


def test_fingerprint_is_pinned_and_taken_once_per_export(monkeypatch):
    """The digest is a resume key shared with journals already on disk
    (and serve's coalesce key): hashing in place must not move it, and
    an exported operand — read-only from then on — is hashed once."""
    import hashlib

    from repro.data.tensor import Tensor
    from repro.runtime import shm

    A = Tensor(("i", "j"), ("dense", "sparse"), (3, 4), {1: [0, 2, 2, 5]},
               {1: [0, 3, 1, 2, 3]}, [1.5, -2.0, 0.25, 4.0, 8.0])
    x = Tensor(("j",), ("dense",), (4,), {}, {},
               np.arange(4, dtype=np.float64))
    pinned = {  # computed by the string-copying implementation (A's crd
        # is 32-bit, its bytes half those of the int64 it was)
        "A": "9f2969b02d81f15d752a1c7b9ec4da179a51958f195e93bc391465a312d4b3b7",
        "x": "81d15cff361ccf2699a0dbdbee294db5e9158aa04e5ca784e0c65f08e8466a39",
    }
    assert fingerprint_tensor(A) == pinned["A"]
    assert fingerprint_tensor(x) == pinned["x"]
    # an unexported tensor is writable, so it is read again every time
    x.vals[0] = 7.0
    assert fingerprint_tensor(x) != pinned["x"]
    export = shm.export_tensor(A, threshold=0)
    try:
        assert fingerprint_tensor(A) == pinned["A"]
        monkeypatch.setattr(hashlib, "sha256", None)  # a re-read would call it
        assert fingerprint_tensor(A) == pinned["A"]
    finally:
        export.release()


# ----------------------------------------------------------------------
# shard files: round trip, corruption, quarantine
# ----------------------------------------------------------------------
def test_tensor_partial_roundtrips_bit_identically():
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    partial = kernel.execute(tensors)
    assert journal.write_shard(3, partial)
    assert journal.completed() == {3}
    loaded = journal.load_shard(3, kernel.ops.semiring)
    assert loaded is not None
    assert np.array_equal(np.asarray(loaded.vals), np.asarray(partial.vals))
    assert loaded.vals.dtype == partial.vals.dtype
    assert loaded.attrs == partial.attrs and loaded.dims == partial.dims


def test_scalar_partial_roundtrips():
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    assert journal.write_shard(0, 42.5)
    assert journal.load_shard(0, kernel.ops.semiring) == 42.5


def test_corrupt_shard_is_quarantined(caplog):
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    journal.write_shard(1, kernel.execute(tensors))
    path = journal._shard_path(1)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload bit: checksum must catch it
    path.write_bytes(bytes(raw))
    with caplog.at_level("WARNING", logger="repro"):
        assert journal.load_shard(1, kernel.ops.semiring) is None
    assert list(journal.dir.glob("shard_*.bin.corrupt"))
    assert 1 not in journal.completed() or not journal._shard_path(1).exists()


def test_truncated_shard_is_quarantined():
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    journal.write_shard(2, kernel.execute(tensors))
    path = journal._shard_path(2)
    path.write_bytes(path.read_bytes()[:-10])  # torn tail
    assert journal.load_shard(2, kernel.ops.semiring) is None
    assert list(journal.dir.glob("shard_*.bin.corrupt"))


def test_older_framing_is_reexecuted_not_misread():
    """A shard file left by a version that framed ``{"sha256", "len"}``
    + one pickle blob is intact by its own rules and unreadable by
    ours: it must cost a re-execution, never be taken for a partial."""
    import hashlib
    import pickle

    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    blob = pickle.dumps({"kind": "scalar", "value": 42.5})
    header = json.dumps({"sha256": hashlib.sha256(blob).hexdigest(),
                         "len": len(blob)}).encode() + b"\n"
    journal._shard_path(0).write_bytes(header + blob)
    assert journal.load_shard(0, kernel.ops.semiring) is None
    assert list(journal.dir.glob("shard_00000.bin.corrupt"))


def test_missing_shard_loads_none():
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    assert journal.load_shard(7, kernel.ops.semiring) is None


# ----------------------------------------------------------------------
# the journal directory: manifest, unusable root, GC
# ----------------------------------------------------------------------
def test_manifest_records_the_plan(job_dir):
    kernel, tensors, plan = _planned()
    journal = JobJournal(job_signature(kernel, plan, tensors))
    journal.ensure(plan)
    manifest = json.loads((journal.dir / "manifest.json").read_text())
    assert manifest["signature"] == journal.signature
    assert manifest["shards"] == plan.shards
    assert manifest["kind"] == plan.kind


def test_unwritable_root_degrades_durability(tmp_path):
    kernel, tensors, plan = _planned()
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the job root should be")
    journal = JobJournal(
        job_signature(kernel, plan, tensors), root=blocker / "sub")
    journal.ensure(plan)
    assert journal.writable is False
    assert journal.write_shard(0, kernel.execute(tensors)) is False
    assert journal.completed() == set()


def test_job_root_honours_env(job_dir):
    assert job_root() == job_dir


def test_gc_sweeps_only_stale_journals(job_dir):
    kernel, tensors, plan = _planned()
    stale = JobJournal(job_signature(kernel, plan, tensors))
    stale.ensure(plan)
    fresh = JobJournal("f" * 64)
    fresh.ensure()
    old = time.time() - 10 * 24 * 3600
    os.utime(stale.dir, (old, old))
    swept = gc_jobs()
    assert stale.job_id in swept
    assert not stale.dir.exists()
    assert fresh.dir.exists()


def test_gc_on_missing_root_is_quiet(tmp_path):
    assert gc_jobs(root=tmp_path / "nowhere") == []
