#!/usr/bin/env python3
"""The triangle query and worst-case optimal joins (Section 5.4.2, Figure 20).

Counts Σ_{a,b,c} R(a,b)·S(b,c)·T(a,c) on the adversarial instances
R = S = T = {0}×[n] ∪ [n]×{0}.  The fused indexed-stream kernel solves
one attribute at a time (the GenericJoin structure) and runs in Θ(n);
any pairwise plan materializes the Θ(n²) intermediate R ⋈ S.  The
script sweeps n and prints both runtimes — watch the pairwise column
grow quadratically while the fused column stays linear.
"""

import argparse
import time

from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.compiler.build import compile_kernel
from repro.semirings import INT
from repro.baselines.pairwise import triangle_count_pairwise
from repro.baselines.sqlite_bridge import SqliteDB
from repro.workloads import triangle_relations, triangle_tensors

TRIANGLE_SQL = """
SELECT COUNT(*)
FROM R, S, T
WHERE R.b = S.b AND S.c = T.c AND T.a = R.a
"""


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[500, 1000, 2000, 4000, 8000])
    args = parser.parse_args()

    schema = Schema.of(a=None, b=None, c=None)
    ctx = TypeContext(schema, {"R": {"a", "b"}, "S": {"b", "c"}, "T": {"a", "c"}})
    expr = Sum("a", Sum("b", Sum("c", Var("R") * Var("S") * Var("T"))))

    print(f"{'n':>7} {'fused (ms)':>12} {'pairwise (ms)':>14} {'sqlite (ms)':>12} {'count':>8}")
    kernel = None
    for n in args.sizes:
        Rt, St, Tt = triangle_tensors(n)
        if kernel is None:
            kernel = compile_kernel(
                expr, ctx, {"R": Rt, "S": St, "T": Tt},
                semiring=INT, name="triangle",
            ).join()
            # a process's first call also imports the runtime layer:
            # pay it on a tiny instance, so every row times the same work
            kernel.run(dict(zip("RST", triangle_tensors(2))))
        tensors = {"R": Rt, "S": St, "T": Tt}
        t0 = time.perf_counter()
        count = kernel.run(tensors)
        t_fused = time.perf_counter() - t0

        R, S, T = triangle_relations(n)
        t0 = time.perf_counter()
        count_pw = triangle_count_pairwise(
            R, S.rename({"b": "b"}), T
        )
        t_pair = time.perf_counter() - t0
        assert count == count_pw, (count, count_pw)

        db = SqliteDB()
        db.load("R", R)
        db.load("S", S)
        db.load("T", T)
        db.index("R", ("a", "b"))
        db.index("S", ("b", "c"))
        db.index("T", ("a", "c"))
        t0 = time.perf_counter()
        (count_sql,), = db.query(TRIANGLE_SQL)
        t_sql = time.perf_counter() - t0
        db.close()
        assert count == count_sql

        print(f"{n:>7} {t_fused*1e3:>12.2f} {t_pair*1e3:>14.2f} "
              f"{t_sql*1e3:>12.2f} {count:>8}")


if __name__ == "__main__":
    main()
