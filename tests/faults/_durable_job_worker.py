"""Subprocess worker for the durable-job chaos tests.

Builds one deterministic contraction (integer-valued data, so every
execution order is bit-identical) and runs it sharded with
``durable=True`` against the ``REPRO_JOB_DIR`` inherited from the
parent.  The parent test runs this twice: once with
``REPRO_FAULT=shard:sigkill:<n>`` armed — the process dies by SIGKILL
right after journaling its *n*-th shard — and once clean, which must
resume from the journal, skip the journaled shards, and print the same
result digest as an uninterrupted run.

Usage: python _durable_job_worker.py [free|contracted]
"""

from __future__ import annotations

import hashlib
import random
import sys

import numpy as np

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT

N = 32
SHARDS = 4


def build(split: str = "free"):
    """A deterministic problem whose planner split has the given kind."""
    rng = random.Random(20260807)
    entries = {
        (rng.randrange(N), rng.randrange(N)): float(rng.randint(1, 9))
        for _ in range(200)
    }
    A = Tensor.from_entries(
        ("i", "j"), ("dense", "sparse"), (N, N), entries, FLOAT)
    if split == "free":
        # SpMV: Sum_j A[i,j]·x[j] splits the free output index i
        x = Tensor.from_entries(
            ("j",), ("dense",), (N,),
            {(j,): float(rng.randint(1, 9)) for j in range(N)}, FLOAT)
        ctx = TypeContext(
            Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
            OutputSpec(("i",), ("dense",), (N,)), backend="python",
            name=f"durable_job_{split}",
        )
        return kernel, {"A": A, "x": x}
    # colmix: Sum_i A[i,j]·u[i] splits the contracted index i (⊕-merge)
    u = Tensor.from_entries(
        ("i",), ("dense",), (N,),
        {(i,): float(rng.randint(1, 9)) for i in range(N)}, FLOAT)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "u": {"i"}})
    kernel = compile_kernel(
        Sum("i", Var("A") * Var("u")), ctx, {"A": A, "u": u},
        OutputSpec(("j",), ("dense",), (N,)), backend="python",
        name=f"durable_job_{split}",
    )
    return kernel, {"A": A, "u": u}


def digest(result) -> str:
    """A bit-exact content digest of a kernel result."""
    h = hashlib.sha256()
    if isinstance(result, Tensor):
        h.update(repr((result.attrs, result.formats, result.dims)).encode())
        h.update(np.ascontiguousarray(result.vals).tobytes())
        for k in sorted(result.pos):
            h.update(np.ascontiguousarray(result.pos[k]).tobytes())
        for k in sorted(result.crd):
            h.update(np.ascontiguousarray(result.crd[k]).tobytes())
    else:
        h.update(repr(result).encode())
    return h.hexdigest()


def main() -> None:
    split = sys.argv[1] if len(sys.argv) > 1 else "free"
    kernel, tensors = build(split)
    stats: list = []
    job: dict = {}
    result = kernel.run_sharded(
        tensors, executor="serial", shards=SHARDS, durable=True,
        stats_out=stats, job_out=job,
    )
    skipped = sorted(s.index for s in stats if s.skipped)
    print(f"JOB {job.get('job_id', '-')}")
    print(f"SKIPPED {','.join(map(str, skipped)) if skipped else '-'}")
    print(f"SPILLS {job.get('spills', 0)}")
    print(f"CHECK {digest(result)}")


if __name__ == "__main__":
    main()
