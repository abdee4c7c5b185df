"""The paper's programs as benchmark inputs, with independent oracles.

Each builder returns a :class:`Program`: a contraction expression, its
typing context, seeded operand tensors and the output format — what
``compile_kernel`` needs — at a size the caller picks.  The expected
result of every program comes from something other than the compiler
under test: the hand-written TACO-style kernels of
``repro.baselines.taco`` for the Fig. 17 programs, SQLite for TPC-H,
the closed-form count for the triangle query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.compiler.kernel import Kernel, OutputSpec, compile_kernel
from repro.data.tensor import Tensor
from repro.krelation.schema import Attribute, Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings.instances import FLOAT, INT

from bench import datagen


@dataclass
class Program:
    name: str
    expr: Any
    ctx: TypeContext
    tensors: Dict[str, Tensor]
    output: Optional[OutputSpec]
    semiring: Any = FLOAT
    search: str = "linear"
    capacity: Optional[int] = None
    #: computes the expected result without the compiler under test
    oracle: Optional[Callable[[], Any]] = None
    expected: Any = None

    def compile(self, name: str, backend: str = "c") -> Kernel:
        return compile_kernel(
            self.expr, self.ctx, self.tensors, self.output,
            semiring=self.semiring, backend=backend, search=self.search,
            name=name,
        )

    def compute_expected(self) -> None:
        self.expected = self.oracle()


def _ctx(order, shapes) -> TypeContext:
    return TypeContext(Schema(Attribute(a, None) for a in order), shapes)


def matches(result: Any, expected: Any) -> bool:
    """Oracle comparison: scalars and dense results by ``allclose``,
    sparse results by coordinates (exact) and values (``allclose``)."""
    if isinstance(expected, tuple):            # (coords, vals) of a sparse result
        if not isinstance(result, Tensor):
            return False
        coords, vals = datagen.to_coo(result)
        want_coords, want_vals = expected
        return (
            coords.shape == want_coords.shape
            and np.array_equal(coords, want_coords)
            and np.allclose(vals, want_vals, rtol=1e-9, atol=1e-9)
        )
    if isinstance(result, Tensor):
        result = result.vals
    got = np.asarray(result, dtype=np.float64).reshape(-1)
    want = np.asarray(expected, dtype=np.float64).reshape(-1)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-9, atol=1e-9))


# ----------------------------------------------------------------------
# Fig. 17: sparse tensor algebra
# ----------------------------------------------------------------------
def spmv(rng, n: int, nnz: int) -> Program:
    from repro.baselines import taco

    A = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    x = datagen.dense(rng, ("j",), (n,))
    return Program(
        "spmv", Sum("j", Var("A") * Var("x")),
        _ctx("ij", {"A": {"i", "j"}, "x": {"j"}}), {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (n,)),
        oracle=lambda: taco.spmv(A, x.vals),
    )


def add(rng, n: int, nnz: int) -> Program:
    from repro.baselines import taco

    A = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    B = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    return Program(
        "add", Var("A") + Var("B"),
        _ctx("ij", {"A": {"i", "j"}, "B": {"i", "j"}}), {"A": A, "B": B},
        OutputSpec(("i", "j"), ("dense", "sparse"), (n, n)),
        capacity=A.nnz + B.nnz + 16,
        oracle=lambda: datagen.to_coo(taco.add(A, B)),
    )


def inner(rng, n: int, nnz: int) -> Program:
    from repro.baselines import taco

    A = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    B = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    return Program(
        "inner", Sum("i", Sum("j", Var("A") * Var("B"))),
        _ctx("ij", {"A": {"i", "j"}, "B": {"i", "j"}}), {"A": A, "B": B},
        None,
        oracle=lambda: taco.inner(A, B),
    )


def _matmul(rng, name, n, nnz, formats, search, oracle_fn) -> Program:
    A = datagen.sparse(rng, ("i", "j"), formats, (n, n), nnz)
    B = datagen.sparse(rng, ("j", "k"), formats, (n, n), nnz)
    # expected output nnz of a random product is ≈ nnz²/n; leave room
    cap = int(min(n * n, max(1024, 4 * nnz * nnz // n + 16 * nnz)))
    return Program(
        name, Sum("j", Var("A") * Var("B")),
        _ctx("ijk", {"A": {"i", "j"}, "B": {"j", "k"}}), {"A": A, "B": B},
        OutputSpec(("i", "k"), formats, (n, n)),
        search=search, capacity=cap,
        oracle=lambda: datagen.to_coo(oracle_fn(A, B)),
    )


def mmul(rng, n: int, nnz: int) -> Program:
    from repro.baselines import taco

    return _matmul(rng, "mmul", n, nnz, ("dense", "sparse"), "linear", taco.mmul)


def smul(rng, n: int, nnz: int) -> Program:
    """DCSR × DCSR with binary-search skip (the paper's asymptotic win)."""
    from repro.baselines import taco

    return _matmul(rng, "smul", n, nnz, ("sparse", "sparse"), "binary", taco.smul)


def mttkrp(rng, n: int, nnz: int, r: int) -> Program:
    from repro.baselines import taco

    B = datagen.sparse(rng, ("i", "k", "l"), ("sparse",) * 3, (n, n, n), nnz)
    C = datagen.dense(rng, ("k", "j"), (n, r))
    D = datagen.dense(rng, ("l", "j"), (n, r))
    return Program(
        "mttkrp", Sum("k", Sum("l", Var("B") * Var("C") * Var("D"))),
        _ctx("iklj", {"B": {"i", "k", "l"}, "C": {"k", "j"}, "D": {"l", "j"}}),
        {"B": B, "C": C, "D": D},
        OutputSpec(("i", "j"), ("dense", "dense"), (n, r)),
        oracle=lambda: taco.mttkrp(B, C.vals.reshape(n, r), D.vals.reshape(n, r)),
    )


# ----------------------------------------------------------------------
# Fig. 21: filtered SpMV (selection fused into the multiplication)
# ----------------------------------------------------------------------
def filtered_spmv(rng, n: int, nnz: int, keep: int) -> Program:
    from repro.baselines import taco

    A = datagen.sparse(rng, ("i", "j"), ("dense", "sparse"), (n, n), nnz)
    x = datagen.dense(rng, ("j",), (n,))
    p = datagen.mask_vector(rng, "j", n, keep)

    def oracle():
        mask = np.zeros(n)
        mask[p.crd[0]] = 1.0
        return taco.spmv(A, x.vals * mask)     # the unfused plan

    return Program(
        "filtered_spmv", Sum("j", Var("A") * Var("x") * Var("p")),
        _ctx("ij", {"A": {"i", "j"}, "x": {"j"}, "p": {"j"}}),
        {"A": A, "x": x, "p": p},
        OutputSpec(("i",), ("dense",), (n,)), search="binary",
        oracle=oracle,
    )


# ----------------------------------------------------------------------
# Fig. 20: the triangle query on the worst-case instance
# ----------------------------------------------------------------------
def triangle(_rng, n: int) -> Program:
    R, S, T = datagen.triangle_tensors(n)
    return Program(
        "triangle",
        Sum("a", Sum("b", Sum("c", Var("R") * Var("S") * Var("T")))),
        _ctx("abc", {"R": {"a", "b"}, "S": {"b", "c"}, "T": {"a", "c"}}),
        {"R": R, "S": S, "T": T}, None, semiring=INT,
        # a = 0: (b,c) must be an edge, 2n−1 of them; every other a
        # forces b = c = 0: one each
        oracle=lambda: 3 * n - 2,
    )


# ----------------------------------------------------------------------
# Fig. 19: TPC-H Q5 and Q9 (SQLite is the oracle)
# ----------------------------------------------------------------------
def tpch(data, query: str) -> Program:
    from repro.tpch import q5, q9

    nation_index = {name: k for k, name, _reg in data.nation.rows}
    if query == "q5":
        module, out = q5, OutputSpec(("n",), ("dense",), (25,))

        def densify(rows):
            want = np.zeros(25)
            for name, revenue in rows.items():
                want[nation_index[name]] = revenue
            return want
    else:
        module = q9
        out = OutputSpec(("n", "y"), ("dense", "dense"), (25, q9.N_YEARS))

        def densify(rows):
            want = np.zeros((25, q9.N_YEARS))
            for (name, year), profit in rows.items():
                want[nation_index[name], year - q9.YEAR_BASE] = profit
            return want

    tensors = module.build_tensors(data)

    def oracle():
        db = module.load_sqlite(data)
        try:
            return densify(module.run_sqlite(db))
        finally:
            db.close()

    return Program(
        f"tpch_{query}", module.expression(),
        _ctx(module.ATTR_ORDER, {v: frozenset(t.attrs) for v, t in tensors.items()}),
        tensors, out, oracle=oracle,
    )
