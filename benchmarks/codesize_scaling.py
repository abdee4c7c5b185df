"""Generated-code size and cold build time of nested sums.

``Σ (A + B + …)`` over ``depth`` compressed levels with 2–4 operands:
bytes of C source and wall time of a cold ``compile_kernel`` (lowering,
IR passes, gcc), each result checked against the operands' total.  The
table is EXPERIMENTS.md E11; before the per-iteration binding step the
size grew geometrically in both directions.

    PYTHONPATH=src python benchmarks/codesize_scaling.py
"""

import os
import tempfile
import time

DEPTHS = (1, 2, 3, 4)
OPERANDS = (2, 3, 4)


def build(depth: int, n_operands: int):
    from repro.compiler.kernel import compile_kernel
    from repro.workloads import nested_sum

    expr, ctx, tensors, total = nested_sum(depth, n_operands)
    start = time.perf_counter()
    kernel = compile_kernel(expr, ctx, tensors, None, cache=False,
                            name=f"codesize_{depth}_{n_operands}")
    elapsed = time.perf_counter() - start
    assert kernel.run(tensors) == total
    return len(kernel.source), elapsed


def main() -> None:
    # a cold .so cache, so that gcc runs for every row
    with tempfile.TemporaryDirectory(prefix="codesize_") as cache_dir:
        os.environ["REPRO_KERNEL_CACHE_DIR"] = cache_dir
        print("| levels | operands | C source (bytes) | cold build (s) |")
        print("|---:|---:|---:|---:|")
        for depth in DEPTHS:
            for n_operands in OPERANDS:
                size, elapsed = build(depth, n_operands)
                print(f"| {depth} | {n_operands} | {size} | {elapsed:.2f} |",
                      flush=True)


if __name__ == "__main__":
    main()
