"""CI smoke test: build SpMV kernels and report cache counters.

Run twice in separate processes with ``REPRO_KERNEL_CACHE_DIR`` shared:
the first (``CACHE_STAGE=cold``) must miss, the second
(``CACHE_STAGE=warm``) must be served entirely from the disk tier.
``CACHE_STAGE=churn`` builds 200 kernels under distinct names, half C
and half Python, and checks that the process keeps no more than it
uses: at most ``MEMO_ENTRIES`` memoized kernels, and no more mapped
shared objects from the cache directory than live C kernels.
"""

import gc
import os

from repro.compiler.cache import MEMO_ENTRIES, default_cache_dir, kernel_cache
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix

n = 64
A = sparse_matrix(n, n, 0.1, attrs=("i", "j"), seed=1)
x = dense_vector(n, attr="j", seed=2)
ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})


def build(backend="python", name="kernel"):
    return compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)), backend=backend, name=name,
    )


stage = os.environ.get("CACHE_STAGE", "cold")
if stage == "churn":
    for i in range(200):
        build(("c", "python")[i % 2], f"churn_{i:03d}").run({"A": A, "x": x})
    gc.collect()
    live_c = sum(k.c_backed for k in kernel_cache._memo.values())
    cache_dir = str(default_cache_dir())
    with open("/proc/self/maps") as maps:
        mapped = {line.split()[-1] for line in maps
                  if cache_dir in line and line.rstrip().endswith(".so")}
    assert len(kernel_cache._memo) <= MEMO_ENTRIES, len(kernel_cache._memo)
    assert len(mapped) <= live_c, (len(mapped), live_c)
    print(f"churn: {len(kernel_cache._memo)} memoized, {live_c} live C "
          f"kernels, {len(mapped)} mapped shared objects")
else:
    build().run({"A": A, "x": x})
    if stage == "warm":
        assert kernel_cache.stats.disk_hits == 1, kernel_cache.stats
        assert kernel_cache.stats.misses == 0, kernel_cache.stats
    else:
        assert kernel_cache.stats.misses == 1, kernel_cache.stats
    print(f"{stage}: {kernel_cache.stats}")
