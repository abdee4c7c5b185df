"""Property tests: durable, resumed, and spilled runs ≡ the plain run.

Three invariants over random contraction problems (four semirings,
both split kinds, shard counts 1–8, reusing the generator of
:mod:`tests.runtime.test_shard_parity`):

1. ``durable=True`` changes where partials live, never what the merge
   produces — a durable run is bit-identical to the plain sharded run,
   and its journal is discarded after the successful merge;
2. a run killed mid-job (``REPRO_FAULT=shard:raise`` — the injected
   fault fires after the first partial is journaled) resumes on the
   next identical invocation, adopts journaled shards instead of
   re-executing them, and still produces the bit-identical result;
3. a run under a vanishingly small ``REPRO_MEM_BUDGET_MB`` spills
   partials and merges with the streaming ⊕-fold — also bit-identical,
   because the streaming fold is the same left fold in the same order.
"""

from __future__ import annotations

import os
from pathlib import Path

from hypothesis import given, settings

from repro.compiler import resilience
from repro.errors import InjectedFault

from tests.runtime.test_shard_parity import _canon, shard_problems


def _plain(kernel, tensors, shards):
    """The uninterrupted, unbudgeted sharded run — the oracle."""
    return _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards))


@settings(max_examples=25, deadline=None)
@given(problem=shard_problems())
def test_durable_run_is_bit_identical_and_cleans_up(problem):
    kernel, tensors, shards = problem
    expected = _plain(kernel, tensors, shards)
    job = {}
    durable = _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards, durable=True,
        job_out=job))
    assert durable == expected
    if "job_dir" in job:  # multi-shard plans journal; collapsed ones don't
        assert not Path(job["job_dir"]).exists(), \
            "the journal must be discarded after a successful merge"


@settings(max_examples=25, deadline=None)
@given(problem=shard_problems())
def test_resume_after_kill_matches_uninterrupted_run(problem):
    kernel, tensors, shards = problem
    expected = _plain(kernel, tensors, shards)
    resilience.reset_fault_counters()
    os.environ["REPRO_FAULT"] = "shard:raise"
    interrupted = False
    try:
        try:
            kernel.run_sharded(
                tensors, executor="serial", shards=shards, durable=True)
        except InjectedFault:
            interrupted = True  # died with >=1 shard journaled
    finally:
        os.environ.pop("REPRO_FAULT", None)
        resilience.reset_fault_counters()
    stats, job = [], {}
    resumed = _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards, durable=True,
        stats_out=stats, job_out=job))
    assert resumed == expected
    if interrupted:
        assert job["resumed_shards"] >= 1
        skipped = [s for s in stats if s.skipped]
        assert skipped and all(s.worker == "journal" for s in skipped)
        assert not Path(job["job_dir"]).exists()


@settings(max_examples=25, deadline=None)
@given(problem=shard_problems())
def test_tiny_budget_spill_matches_unbudgeted_run(problem):
    kernel, tensors, shards = problem
    expected = _plain(kernel, tensors, shards)
    os.environ["REPRO_MEM_BUDGET_MB"] = "0.000001"
    try:
        spilled = _canon(kernel.run_sharded(
            tensors, executor="serial", shards=shards))
    finally:
        os.environ.pop("REPRO_MEM_BUDGET_MB", None)
    assert spilled == expected


@settings(max_examples=15, deadline=None)
@given(problem=shard_problems())
def test_resume_under_budget_matches_uninterrupted_run(problem):
    """Kill + tiny budget at once: the resumed, spilling run still
    reproduces the plain result exactly."""
    kernel, tensors, shards = problem
    expected = _plain(kernel, tensors, shards)
    resilience.reset_fault_counters()
    os.environ["REPRO_FAULT"] = "shard:raise"
    os.environ["REPRO_MEM_BUDGET_MB"] = "0.000001"
    try:
        try:
            kernel.run_sharded(
                tensors, executor="serial", shards=shards, durable=True)
        except InjectedFault:
            pass
        resilience.reset_fault_counters()
        os.environ.pop("REPRO_FAULT", None)
        resumed = _canon(kernel.run_sharded(
            tensors, executor="serial", shards=shards, durable=True))
    finally:
        os.environ.pop("REPRO_FAULT", None)
        os.environ.pop("REPRO_MEM_BUDGET_MB", None)
        resilience.reset_fault_counters()
    assert resumed == expected
