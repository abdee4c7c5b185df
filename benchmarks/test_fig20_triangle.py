"""Figure 20: the triangle query on worst-case instances.

Fused multiway joins (Etch) run in Θ(n); pairwise plans (our hash-join
engine, SQLite) materialize a Θ(n²) intermediate.  The log-log slopes
are the reproduction target: ~1 for Etch, ~2 for the baselines.
"""

import pytest

from repro.compiler.build import compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import INT
from repro.baselines.pairwise import triangle_count_pairwise
from repro.baselines.sqlite_bridge import SqliteDB
from repro.workloads import triangle_relations, triangle_tensors

SIZES = [250, 500, 1000, 2000]
SQL = "SELECT COUNT(*) FROM R, S, T WHERE R.b = S.b AND S.c = T.c AND T.a = R.a"


@pytest.mark.parametrize("n", SIZES + [8000, 32000])
def test_triangle_etch(benchmark, n):
    Rt, St, Tt = triangle_tensors(n)
    schema = Schema.of(a=None, b=None, c=None)
    ctx = TypeContext(schema, {"R": {"a", "b"}, "S": {"b", "c"}, "T": {"a", "c"}})
    expr = Sum("a", Sum("b", Sum("c", Var("R") * Var("S") * Var("T"))))
    kernel = compile_kernel(expr, ctx, {"R": Rt, "S": St, "T": Tt},
                            semiring=INT, name="fig20_triangle")
    count = benchmark(kernel.bind({"R": Rt, "S": St, "T": Tt}))
    assert count >= n  # Θ(n) output (footnote 2)


@pytest.mark.parametrize("n", SIZES)
def test_triangle_sqlite(benchmark, n):
    R, S, T = triangle_relations(n)
    db = SqliteDB()
    for name, rel in (("R", R), ("S", S), ("T", T)):
        db.load(name, rel)
    db.index("R", ("a", "b"))
    db.index("S", ("b", "c"))
    db.index("T", ("a", "c"))
    db.analyze()
    benchmark.pedantic(db.query, args=(SQL,), rounds=2, iterations=1)
    db.close()


@pytest.mark.parametrize("n", SIZES[:3])
def test_triangle_pairwise(benchmark, n):
    R, S, T = triangle_relations(n)
    benchmark.pedantic(triangle_count_pairwise, args=(R, S, T), rounds=1,
                       iterations=1)
