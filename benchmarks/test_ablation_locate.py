"""Ablation: the locate (random-access) optimization.

Dense and implicit levels can be indexed directly instead of
co-iterated; this is what puts Etch inside the paper's 0.75–1.2× band
against TACO on SpMV and MTTKRP (EXPERIMENTS.md E1).  With locate off,
the same kernels fall back to generic max-index merge loops.
"""

import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

N = 4000


@pytest.mark.parametrize("locate", [True, False], ids=["located", "coiterated"])
def test_spmv(benchmark, locate):
    schema = Schema.of(i=None, j=None)
    A = sparse_matrix(N, N, 0.01, attrs=("i", "j"), seed=1)
    x = dense_vector(N, attr="j", seed=2)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (N,)), locate=locate,
        name=f"abl_loc_spmv_{locate}",
    )
    benchmark(kernel.bind({"A": A, "x": x}))


@pytest.mark.parametrize("locate", [True, False], ids=["located", "coiterated"])
def test_mttkrp(benchmark, locate):
    n, r = 200, 32
    schema = Schema.of(i=None, k=None, l=None, j=None)
    B = sparse_tensor3((n, n, n), 0.001, attrs=("i", "k", "l"), seed=3)
    C = dense_matrix(n, r, attrs=("k", "j"), seed=4)
    D = dense_matrix(n, r, attrs=("l", "j"), seed=5)
    ctx = TypeContext(schema, {"B": {"i", "k", "l"}, "C": {"k", "j"}, "D": {"l", "j"}})
    kernel = compile_kernel(
        Sum("k", Sum("l", Var("B") * Var("C") * Var("D"))), ctx,
        {"B": B, "C": C, "D": D},
        OutputSpec(("i", "j"), ("dense", "dense"), (n, r)), locate=locate,
        name=f"abl_loc_mttkrp_{locate}",
    )
    benchmark(kernel.bind({"B": B, "C": C, "D": D}))
