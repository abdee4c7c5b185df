"""Figure 17: sparse tensor algebra, Etch vs the TACO baseline.

The paper sweeps synthetic matrices over sparsity levels for SpMV,
add, inner, mmul (CSR), smul (DCSR) and MTTKRP, reporting Etch within
0.75–1.2× of TACO except add (2–3× slower: TACO's merge loop is more
refined) and smul (faster: binary-search skip).  Each benchmark here is
one (expression, system, sparsity) cell of that figure.
"""

import numpy as np
import pytest

from repro.baselines import taco
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

N = 1000
SPARSITIES = [0.001, 0.01, 0.05]
SCHEMA = Schema.of(i=None, j=None, k=None)


def _mat(density, attrs=("i", "j"), formats=("dense", "sparse"), seed=0):
    return sparse_matrix(N, N, density, attrs=attrs, formats=formats, seed=seed)


# ----------------------------------------------------------------------
# SpMV
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", SPARSITIES)
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_spmv(benchmark, system, density):
    A = _mat(density, seed=1)
    xt = dense_vector(N, attr="j", seed=2)
    x = np.ascontiguousarray(xt.vals, dtype=np.float64)
    if system == "taco":
        benchmark(taco.spmv, A, x)
        return
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": xt},
        OutputSpec(("i",), ("dense",), (N,)), name="fig17_spmv",
    )
    benchmark(kernel.bind({"A": A, "x": xt}))


# ----------------------------------------------------------------------
# add (CSR + CSR)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", SPARSITIES)
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_add(benchmark, system, density):
    A = _mat(density, seed=3)
    B = _mat(density, seed=4)
    if system == "taco":
        benchmark(taco.add, A, B)
        return
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"i", "j"}})
    kernel = compile_kernel(
        Var("A") + Var("B"), ctx, {"A": A, "B": B},
        OutputSpec(("i", "j"), ("dense", "sparse"), (N, N)), name="fig17_add",
    )
    benchmark(kernel.bind({"A": A, "B": B}, capacity=A.nnz + B.nnz + 16))


# ----------------------------------------------------------------------
# inner (matrix inner product)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", SPARSITIES)
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_inner(benchmark, system, density):
    A = _mat(density, seed=5)
    B = _mat(density, seed=6)
    if system == "taco":
        benchmark(taco.inner, A, B)
        return
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"i", "j"}})
    kernel = compile_kernel(
        Sum("i", Sum("j", Var("A") * Var("B"))), ctx, {"A": A, "B": B},
        name="fig17_inner",
    )
    benchmark(kernel.bind({"A": A, "B": B}))


# ----------------------------------------------------------------------
# mmul (CSR x CSR -> CSR, linear combination of rows)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", SPARSITIES)
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_mmul(benchmark, system, density):
    A = _mat(density, seed=7)
    B = _mat(density, attrs=("j", "k"), seed=8)
    if system == "taco":
        benchmark(taco.mmul, A, B)
        return
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"j", "k"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "sparse"), (N, N)), name="fig17_mmul",
    )
    cap = min(N * N, max(1024, 40 * A.nnz))
    benchmark(kernel.bind({"A": A, "B": B}, capacity=cap))


# ----------------------------------------------------------------------
# smul (DCSR x DCSR -> DCSR); Etch uses binary-search skip here, the
# paper's source of asymptotic improvement over TACO
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", SPARSITIES)
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_smul(benchmark, system, density):
    A = _mat(density, formats=("sparse", "sparse"), seed=9)
    B = _mat(density, attrs=("j", "k"), formats=("sparse", "sparse"), seed=10)
    if system == "taco":
        benchmark(taco.smul, A, B)
        return
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"j", "k"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("sparse", "sparse"), (N, N)),
        search="binary", name="fig17_smul",
    )
    cap = min(N * N, max(1024, 40 * A.nnz))
    benchmark(kernel.bind({"A": A, "B": B}, capacity=cap))


# ----------------------------------------------------------------------
# MTTKRP (CSF tensor x dense factors)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", [0.0005, 0.005])
@pytest.mark.parametrize("system", ["etch", "taco"])
def test_mttkrp(benchmark, system, density):
    n, r = 120, 32
    schema = Schema.of(i=None, k=None, l=None, j=None)
    B = sparse_tensor3((n, n, n), density, attrs=("i", "k", "l"), seed=11)
    Cd = dense_matrix(n, r, attrs=("k", "j"), seed=12)
    Dd = dense_matrix(n, r, attrs=("l", "j"), seed=13)
    if system == "taco":
        C = np.ascontiguousarray(Cd.vals.reshape(n, r))
        D = np.ascontiguousarray(Dd.vals.reshape(n, r))
        benchmark(taco.mttkrp, B, C, D)
        return
    ctx = TypeContext(schema, {"B": {"i", "k", "l"}, "C": {"k", "j"}, "D": {"l", "j"}})
    kernel = compile_kernel(
        Sum("k", Sum("l", Var("B") * Var("C") * Var("D"))), ctx,
        {"B": B, "C": Cd, "D": Dd},
        OutputSpec(("i", "j"), ("dense", "dense"), (n, r)), name="fig17_mttkrp",
    )
    benchmark(kernel.bind({"B": B, "C": Cd, "D": Dd}))
