#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload lib_kernel --seed 1 --seconds 12 --trace 0

prints a per-cell table, every metric by name and unit, and — as the
last line of standard output — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate run that
reports the per-layer metrics and writes ``trace.json``.
"""

from __future__ import annotations

import os
import sys

# module level on purpose: the spawn-based worker pool re-imports this
# file in every worker, which needs the same import roots
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (os.path.join(_ROOT, "src"), _ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("bench: no program to measure: src/repro is missing",
              file=sys.stderr)
        return 3

    import argparse

    from bench import harness
    from bench.workloads import DEFAULT_SECONDS, NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="scales the fixed number of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and few rounds: a functional check")
    args = parser.parse_args(argv)

    try:
        harness.check_environment()
    except harness.HygieneError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    # a hung pool or server must end the run, not outlive the driver
    harness.adopt_orphans()
    shm_before = harness.shm_segments()
    harness.arm_watchdog(170)
    try:
        return measure(args, shm_before)
    except harness.WatchdogExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.stderr.flush()
        harness.arm_watchdog(0)
        harness.end_processes(grace_s=0)    # kill at once, then wait
        for segment in harness.shm_segments() - shm_before:
            os.unlink(segment)              # their tracker was killed too
        # not sys.exit: a pool's worker threads would be waited for
        os._exit(4)
    finally:
        # whatever ended the run, no process outlives it
        harness.arm_watchdog(0)
        harness.end_processes()


def measure(args, shm_before) -> int:
    import gc
    import json
    import statistics
    import time

    from bench import harness, metrics
    from bench.spans import Tracer
    from bench.workloads import DEFAULT_SECONDS, load

    workload = load(args.workload)
    scale = args.seconds / DEFAULT_SECONDS
    rounds = max(1, round(workload.rounds * scale))
    setup_reps = harness.SETUP_REPS
    if args.smoke:
        rounds, setup_reps = 2, 1
        workload.samples = min(workload.samples, 3)
    dirs = harness.RunDirs(workload.name)
    tracer = Tracer()
    set_up = False
    warm_failed = 0
    try:
        # -- harness work: inputs and oracle values ----------------------
        t0 = time.perf_counter()
        dirs.point_caches("oracle")
        workload.generate(args.seed, args.smoke)
        datagen_s = time.perf_counter() - t0

        # -- program work before the first timed op ----------------------
        # repeated, each time against empty private cache dirs and with
        # its own warm-up round; the last repetition's state is kept
        import_s = harness.import_seconds(setup_reps)
        compile_samples, warmup_samples = [], []
        for rep in range(setup_reps):
            kernel_dir = dirs.point_caches(f"setup{rep}")
            final = rep == setup_reps - 1
            set_up = True
            t0 = time.perf_counter()
            workload.setup(f"s{rep}", final)
            compile_samples.append(time.perf_counter() - t0)
            cells = workload.cells()
            warmup_samples.append(harness.run_rounds(
                cells, 1, verify=False, samples=harness.WARMUP_SAMPLES))
            warm_failed += sum(c.failed for c in cells)
            if not final:
                workload.teardown()
                set_up = False
        compile_s = statistics.median(compile_samples)
        warmup_s = statistics.median(warmup_samples)
        setup_s = import_s + statistics.median(
            c + w for c, w in zip(compile_samples, warmup_samples))
        for c in cells:
            c.reset()
        gc.collect()
        gc.freeze()

        # -- the timed part ----------------------------------------------
        from repro.compiler.cache import kernel_cache

        hits0, miss0 = kernel_cache.stats.hits, kernel_cache.stats.misses
        harness.run_rounds(cells, rounds)
        layer_values = {}
        if args.trace:
            # a second pass: every op again, as the public calls it is made of
            layer_values = workload.trace(
                tracer, max(1, rounds // 3), metrics.untraced_medians(cells))
            hits = kernel_cache.stats.hits - hits0
            lookups = hits + kernel_cache.stats.misses - miss0
            layer_values.setdefault(
                "cache.hit_ratio", hits / lookups if lookups else 0.0)
        size = harness.code_bytes(kernel_dir)
    finally:
        harness.arm_watchdog(60)
        try:
            if set_up:
                workload.teardown()
            if args.trace:
                tracer.dump(os.path.join(_ROOT, "trace.json"))
        finally:
            dirs.remove()

    # an exported operand keeps its shared-memory segment until the
    # tensor dies, so drop every input before looking for leaks
    for c in cells:
        c.op = c.check = None
    del workload
    gc.unfreeze()
    gc.collect()
    # tear-down must have ended every process: a straggler is a leak
    leaked = len(harness.shm_segments() - shm_before) + harness.end_processes()
    harness.arm_watchdog(0)

    harness.print_rows(cells)
    attempted = sum(c.attempted for c in cells) + tracer.ops
    failed = sum(c.failed for c in cells) + warm_failed + tracer.failed_ops
    setup = {"setup.import_s": import_s, "setup.compile_s": compile_s,
             "setup.warmup_s": warmup_s, "harness.datagen_s": datagen_s}
    if args.trace:
        metrics.print_breakdown(tracer)
        metrics.print_coverage(tracer, cells)
        out = metrics.per_layer(
            tracer, cells, layer_values, setup, attempted=attempted, leaked=leaked)
    else:
        out = metrics.end_to_end(
            setup_s=setup_s,
            peak_rss_mb=harness.peak_rss_mb(), code_bytes=size)
        # the timings are not gated (see README): printed, not in the JSON
        metrics.print_metrics(metrics.timings(cells))
    metrics.print_metrics(out)
    print(f"failed_share {failed / max(attempted, 1):.6f}  "
          f"({failed} of {attempted} ops)   leaked {leaked}")
    complete = all(len(c.times_ms) > 0 for c in cells)
    correct = failed == 0 and leaked == 0 and complete
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
