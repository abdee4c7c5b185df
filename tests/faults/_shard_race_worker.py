"""Subprocess worker for the runtime cache-race test.

Builds one SpMV kernel, then runs it sharded on the *pool* executor
with two spawn-started workers against the shared
``REPRO_KERNEL_CACHE_DIR`` inherited from the parent.  Each pool worker
rebuilds the kernel from its recipe through the disk cache tier, taking
the per-key file lock before any rebuild — the parent test launches two
of these simultaneously, giving up to four processes racing on one
cache key.

Prints the result checksum, whether any shard needed the in-parent
retry fallback, and the parent's cache counters.

Usage: python _shard_race_worker.py
"""

import numpy as np

from repro.compiler.cache import kernel_cache
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix


def main() -> None:
    n = 48
    A = sparse_matrix(n, n, 0.25, attrs=("i", "j"), seed=3)
    x = dense_vector(n, attr="j", seed=4)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)), backend="python",
        name="shard_race_k",
    )
    result = kernel.run_sharded(
        {"A": A, "x": x}, executor="pool", workers=2, shards=2
    )
    retried = sum(int(s.retried) for s in kernel.last_shard_stats)
    print(f"CHECK {np.asarray(result.vals).sum():.12f}")
    print(f"RETRIED {retried}")
    print(f"STATS {kernel_cache.stats}")


if __name__ == "__main__":
    main()
