"""Subprocess worker for the concurrent-build test (the grown-up
version of ``.github/cache_smoke.py``).

Builds and runs one SpMV kernel and prints a result checksum plus the
cache counters; the parent test launches two of these simultaneously
against a shared ``REPRO_KERNEL_CACHE_DIR`` and checks that both
succeed with identical results.

Usage: python _concurrent_worker.py <backend>
"""

import sys

import numpy as np

from repro.compiler.cache import kernel_cache
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix


def main() -> None:
    backend = sys.argv[1] if len(sys.argv) > 1 else "python"
    n = 48
    A = sparse_matrix(n, n, 0.25, attrs=("i", "j"), seed=3)
    x = dense_vector(n, attr="j", seed=4)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)), backend=backend,
        name="concurrent_k",
    )
    result = kernel.run({"A": A, "x": x})
    print(f"CHECK {np.asarray(result.vals).sum():.12f}")
    print(f"STATS {kernel_cache.stats}")


if __name__ == "__main__":
    main()
