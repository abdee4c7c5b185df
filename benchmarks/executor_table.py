"""EXPERIMENTS.md E16's executor table, for whichever tree it is run in
(``cd <checkout> && python <this file> [--backend python --smoke]``):
``bench``'s ``job_sharded`` programs run unsharded (*single*) and
sharded on every executor the tree knows, ``workers=2, shards=4``,
median of ten, in ms.  Run in a checkout of the parent commit the table
has the ``process`` column the issue quotes; here it has three.

The body runs under the ``__main__`` check: the pool's workers start by
``spawn``, which re-imports the main module.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

sys.path[:0] = [os.getcwd(), os.path.join(os.getcwd(), "src")]

WORKERS, SHARDS, REPS = 2, 4, 10


def median_ms(fn) -> float:
    fn()
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--backend", default="c", choices=("c", "python"))
    ap.add_argument("--smoke", action="store_true",
                    help="job_sharded's smoke sizes (the Python backend's)")
    args = ap.parse_args()
    run_dir = os.path.abspath(".bench_run")  # git-ignored, like bench/'s
    os.makedirs(run_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="executors_", dir=run_dir)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(scratch, "kernels")

    from bench import datagen, programs
    from bench.workloads import job_sharded
    from repro import config
    from repro.runtime import shutdown_shared_runtime

    executors = [e for e in config.EXECUTORS if e != "serial"]
    columns = ["single", "serial"] + executors
    print(f"{args.backend} backend, "
          f"{'smoke' if args.smoke else 'full'} size, "
          f"workers={WORKERS} shards={SHARDS}, median of {REPS} (ms)")
    print(f"{'program':<8}{'single':>10}" + "".join(
        f"{c + str(SHARDS):>10}" for c in columns[1:]))
    sizes = job_sharded.SMOKE if args.smoke else job_sharded.FULL
    try:
        for name, (build, size) in sizes.items():
            p = build(datagen.rng_for(args.seed, "job_sharded", name), **size)
            p.compute_expected()
            kernel = p.compile(f"ex_{name}", backend=args.backend)
            row = []
            for column in columns:
                def run(column=column):
                    if column == "single":
                        return kernel.run(p.tensors, p.capacity,
                                          parallel=False)
                    return kernel.run_sharded(
                        p.tensors, p.capacity, executor=column,
                        workers=WORKERS, shards=SHARDS)

                assert programs.matches(run(), p.expected), (name, column)
                row.append(median_ms(run))
            print(f"{name:<8}" + "".join(f"{ms:>10.1f}" for ms in row))
    finally:
        shutdown_shared_runtime()


if __name__ == "__main__":
    main()
