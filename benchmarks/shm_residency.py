"""EXPERIMENTS.md E15's two side tables, for whichever tree it is run in
(``cd <checkout> && python <this file> [--trim]``):

* the phase trace — ``RssAnon`` / ``RssShmem`` / peak of this process
  after each phase of ``bench``'s ``job_sharded`` workload (generate →
  set-up → one round of every cell).  ``--trim`` calls
  ``malloc_trim(0)`` before every reading, which shows what the heap
  holds rather than what glibc has kept of it;
* the journal split — what one durable ``add`` job pays, by part:
  operand fingerprints, framing the partials, their SHA-256, and the
  rest of ``write_shard`` (temp file, page-cache copy, rename).

Measuring script only: nothing in ``src/`` trims the heap.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path[:0] = [os.getcwd(), os.path.join(os.getcwd(), "src")]


def status_mb(*fields: str):
    with open("/proc/self/status") as f:
        rows = dict(line.split(":", 1) for line in f)
    return [int(rows[k].split()[0]) / 1024.0 for k in fields]


def median_ms(fn, reps: int = 30) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trim", action="store_true")
    args = ap.parse_args()
    run_dir = os.path.abspath(".bench_run")  # git-ignored, like bench/'s
    os.makedirs(run_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="residency_", dir=run_dir)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(scratch, "kernels")
    os.environ["REPRO_JOB_DIR"] = os.path.join(scratch, "jobs")
    libc = ctypes.CDLL("libc.so.6")

    def reading(phase: str) -> None:
        if args.trim:
            libc.malloc_trim(0)
        anon, shmem, peak = status_mb("RssAnon", "RssShmem", "VmHWM")
        print(f"{phase:<12}{anon:>10.1f}{shmem:>10.1f}{peak:>10.1f}")

    from bench.workloads import load

    workload = load("job_sharded")
    print(f"{'phase':<12}{'RssAnon':>10}{'RssShmem':>10}{'VmHWM':>10}   (MB)")
    reading("import")
    workload.generate(args.seed, smoke=False)
    reading("generate")
    workload.setup("residency", final=True)
    reading("set-up")
    for cell in workload.cells():
        for _ in range(workload.samples):
            cell.op()
    reading("rounds")

    # ---- the journal split, on the durable cell's own job -------------
    from repro.runtime import jobs, plan_shards, slice_operands

    p, kernel = workload.programs["add"], workload.kernels["add"]
    plan = plan_shards(kernel, p.tensors, 4)
    partials = [
        kernel.with_output_dims((hi - lo,) + tuple(kernel.output.dims[1:])).run(
            slice_operands(kernel, p.tensors, plan, lo, hi), p.capacity,
            parallel=False)
        for lo, hi in plan.ranges
    ]
    journal = jobs.JobJournal(jobs.job_signature(kernel, plan, p.tensors))
    journal.ensure(plan)

    def frames_of(partial):
        encoded = jobs._encode_partial(partial)
        return encoded if isinstance(encoded, list) else [encoded]

    framed = [frames_of(x) for x in partials]
    split = {
        "fingerprint": median_ms(
            lambda: jobs.job_signature(kernel, plan, p.tensors)),
        "encode": median_ms(lambda: [frames_of(x) for x in partials]),
        "checksum": median_ms(lambda: [
            [hashlib.sha256(f).digest() for f in fs] for fs in framed]),
    }
    whole = median_ms(lambda: [
        journal.write_shard(i, x) for i, x in enumerate(partials)])
    split["write"] = whole - split["encode"] - split["checksum"]
    size = sum(os.path.getsize(os.path.join(journal.dir, f))
               for f in os.listdir(journal.dir))
    print("journal split, ms: " + "  ".join(
        f"{k} {v:.1f}" for k, v in split.items())
        + f"   ({size:,} bytes in {len(partials)} shard files + manifest)")
    journal.discard()
    workload.teardown()
    shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
