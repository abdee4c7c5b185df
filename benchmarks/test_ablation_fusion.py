"""Ablation: fused vs unfused execution of x·y·z (Section 2.1).

The fused kernel co-iterates all three vectors; the unfused plan
materializes t = x·y and then computes t·z — "additional memory and up
to twice as many steps", with an asymptotic penalty when z is much
sparser than x·y (prematurely computing x·y is wasted work)."""

import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import sparse_vector

N = 200_000
SCHEMA = Schema.of(i=None)


@pytest.fixture(scope="module")
def vectors():
    x = sparse_vector(N, 0.05, seed=1)
    y = sparse_vector(N, 0.05, seed=2)
    z = sparse_vector(N, 0.0005, seed=3)   # z is 100x sparser
    return x, y, z


@pytest.fixture(scope="module")
def kernels(vectors):
    x, y, z = vectors
    ctx3 = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}, "z": {"i"}})
    fused = compile_kernel(
        Sum("i", Var("x") * Var("y") * Var("z")), ctx3,
        {"x": x, "y": y, "z": z}, name="abl_fused_dot3",
    )
    ctx2 = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    pair_mul = compile_kernel(
        Var("x") * Var("y"), ctx2, {"x": x, "y": y},
        OutputSpec(("i",), ("sparse",), (N,)), name="abl_pair_mul",
    )
    pair_dot = compile_kernel(
        Sum("i", Var("x") * Var("y")), ctx2, {"x": x, "y": y},
        name="abl_pair_dot",
    )
    return fused, pair_mul, pair_dot


def test_fused_three_way(benchmark, vectors, kernels):
    x, y, z = vectors
    fused, _, _ = kernels
    benchmark(fused.bind({"x": x, "y": y, "z": z}))


def test_unfused_three_way(benchmark, vectors, kernels):
    """Materialize t = x*y (a temporary sparse vector), then t·z."""
    x, y, z = vectors
    _, pair_mul, pair_dot = kernels
    cap = min(x.nnz, y.nnz) + 16

    def unfused():
        t = pair_mul.run({"x": x, "y": y}, capacity=cap)
        return pair_dot.run({"x": t, "y": z})

    benchmark(unfused)
