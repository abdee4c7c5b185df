"""Section 8.1's ordering experiment: inner-product vs
linear-combination-of-rows matrix multiplication.

The paper reports a 40× gap at 10 000×10 000 / 200 000 nonzeros
(9.77 s vs 0.24 s); the scaled instance here shows the same asymptotic
separation (O(n²k) vs O(nk²) stream transitions)."""

import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.tensor import repack
from repro.workloads import sparse_matrix

N = 1500
K = 15


@pytest.fixture(scope="module")
def matrices():
    X = sparse_matrix(N, N, K / N, attrs=("i", "k"),
                      formats=("sparse", "sparse"), seed=1)
    Y = sparse_matrix(N, N, K / N, attrs=("k", "j"),
                      formats=("sparse", "sparse"), seed=2)
    Yt = repack(Y, ("j", "k"), ("sparse", "sparse"))
    return X, Y, Yt


def test_rows_ordering(benchmark, matrices):
    """Loops i, k, j — linear combination of rows (the fast algorithm)."""
    X, Y, _ = matrices
    schema = Schema.of(i=None, k=None, j=None)
    ctx = TypeContext(schema, {"X": {"i", "k"}, "Y": {"k", "j"}})
    kernel = compile_kernel(
        Sum("k", Var("X") * Var("Y")), ctx, {"X": X, "Y": Y},
        OutputSpec(("i", "j"), ("sparse", "sparse"), (N, N)),
        name="sec81_rows",
    )
    bound = kernel.bind({"X": X, "Y": Y}, capacity=16 * X.nnz * K)
    benchmark.pedantic(bound, rounds=3, iterations=1)


def test_inner_ordering(benchmark, matrices):
    """Loops i, j, k — the inner-product algorithm (asymptotically worse)."""
    X, _, Yt = matrices
    schema = Schema.of(i=None, j=None, k=None)
    ctx = TypeContext(schema, {"X": {"i", "k"}, "Yt": {"j", "k"}})
    kernel = compile_kernel(
        Sum("k", Var("X") * Var("Yt")), ctx, {"X": X, "Yt": Yt},
        OutputSpec(("i", "j"), ("sparse", "sparse"), (N, N)),
        name="sec81_inner",
    )
    bound = kernel.bind({"X": X, "Yt": Yt}, capacity=N * N + 16)
    benchmark.pedantic(bound, rounds=3, iterations=1)
