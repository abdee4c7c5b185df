"""Ablation: linear vs binary-search skip (DESIGN.md design point 1).

The paper credits Etch's ``smul`` win over TACO to binary search in the
skip function — an asymptotic improvement when one operand is much
sparser than the other (each intersection probe skips a long run).
The asymmetric instance here makes the effect visible; the symmetric
instance shows the two strategies are comparable when neither side can
skip far.
"""

import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import sparse_matrix

N = 4000


def _kernel(A, B, search):
    schema = Schema.of(i=None, j=None, k=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
    return compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("sparse", "sparse"), (N, N)),
        search=search, name=f"abl_skip_{search}",
    )


@pytest.fixture(scope="module")
def asymmetric():
    # A extremely sparse, B dense-ish rows: intersections skip far
    A = sparse_matrix(N, N, 20 / (N * N) * N / N * 0.0005, attrs=("i", "j"),
                      formats=("sparse", "sparse"), seed=1)
    B = sparse_matrix(N, N, 0.02, attrs=("j", "k"),
                      formats=("sparse", "sparse"), seed=2)
    return A, B


@pytest.fixture(scope="module")
def symmetric():
    A = sparse_matrix(N, N, 0.002, attrs=("i", "j"),
                      formats=("sparse", "sparse"), seed=3)
    B = sparse_matrix(N, N, 0.002, attrs=("j", "k"),
                      formats=("sparse", "sparse"), seed=4)
    return A, B


@pytest.mark.parametrize("search", ["linear", "binary"])
def test_smul_asymmetric(benchmark, asymmetric, search):
    A, B = asymmetric
    kernel = _kernel(A, B, search)
    benchmark(kernel.bind({"A": A, "B": B},
                          capacity=min(N * N, 200 * max(A.nnz, 16))))


@pytest.mark.parametrize("search", ["linear", "binary"])
def test_smul_symmetric(benchmark, symmetric, search):
    A, B = symmetric
    kernel = _kernel(A, B, search)
    benchmark(kernel.bind({"A": A, "B": B},
                          capacity=min(N * N, 200 * max(A.nnz, 16))))
