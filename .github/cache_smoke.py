"""CI smoke test: build SpMV kernels and report cache counters.

Run twice in separate processes with ``REPRO_KERNEL_CACHE_DIR`` shared:
the first (``CACHE_STAGE=cold``) must miss, the second
(``CACHE_STAGE=warm``) must be served entirely from the disk tier.
``CACHE_STAGE=churn`` builds 200 kernels under distinct names, half C
and half Python, every tenth a sparse-output matmul that sorts, and
checks that the process keeps no more than it uses: at most
``MEMO_ENTRIES`` memoized kernels, and no more mapped shared objects
from the cache directory than live C kernels plus the one sort runtime
they link.  The cache directory holds that one runtime, and no kernel
source carries the sort's body.
"""

import gc
import glob
import os

from repro.compiler.cache import MEMO_ENTRIES, default_cache_dir, kernel_cache
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix

n = 64
A = sparse_matrix(n, n, 0.1, attrs=("i", "j"), seed=1)
B = sparse_matrix(n, n, 0.1, attrs=("j", "k"), seed=3)
x = dense_vector(n, attr="j", seed=2)
ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
mm_ctx = TypeContext(Schema.of(i=None, j=None, k=None),
                     {"A": {"i", "j"}, "B": {"j", "k"}})


def build(backend="python", name="kernel"):
    return compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)), backend=backend, name=name,
    )


def build_sorting(name):
    return compile_kernel(
        Sum("j", Var("A") * Var("B")), mm_ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "sparse"), (n, n)), backend="c", name=name,
    )


stage = os.environ.get("CACHE_STAGE", "cold")
if stage == "churn":
    for i in range(200):
        if i % 10 == 0:
            build_sorting(f"churn_{i:03d}").run({"A": A, "B": B})
        else:
            build(("c", "python")[i % 2], f"churn_{i:03d}").run({"A": A, "x": x})
    gc.collect()
    live_c = sum(k.c_backed for k in kernel_cache._memo.values())
    cache_dir = str(default_cache_dir())
    with open("/proc/self/maps") as maps:
        mapped = {line.split()[-1] for line in maps
                  if cache_dir in line and line.rstrip().endswith(".so")}
    assert len(kernel_cache._memo) <= MEMO_ENTRIES, len(kernel_cache._memo)
    assert len(mapped) <= live_c + 1, (len(mapped), live_c)
    runtimes = glob.glob(os.path.join(cache_dir, "repro_rt_*.c"))
    assert len(runtimes) == 1, runtimes
    pasted = [p for p in glob.glob(os.path.join(cache_dir, "*.c"))
              if p not in runtimes and "void _sort_i64(int64_t* a" in open(p).read()]
    assert not pasted, pasted
    print(f"churn: {len(kernel_cache._memo)} memoized, {live_c} live C "
          f"kernels, {len(mapped)} mapped shared objects, one sort runtime")
else:
    build().run({"A": A, "x": x})
    if stage == "warm":
        assert kernel_cache.stats.disk_hits == 1, kernel_cache.stats
        assert kernel_cache.stats.misses == 0, kernel_cache.stats
    else:
        assert kernel_cache.stats.misses == 1, kernel_cache.stats
    print(f"{stage}: {kernel_cache.stats}")
