"""Workspace insertion: detection and correctness (Kjolstad et al. 2019)."""

import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.dest import workspace_needed
from repro.compiler.kernel import OutputSpec
from repro.compiler.lower import lower
from repro.compiler.ir import NameGen
from repro.compiler.scalars import scalar_ops_for
from repro.compiler.formats import TensorInput
from repro.data import tensor_to_krelation
from repro.krelation import Schema, ShapeError
from repro.lang import Sum, TypeContext, Var, denote
from repro.semirings import FLOAT
from repro.workloads import sparse_matrix, sparse_vector

N = 12
SCHEMA = Schema.of(i=range(N), j=range(N), k=range(N))


def lowered(expr, ctx, inputs):
    ops = scalar_ops_for(FLOAT)
    specs = {
        name: TensorInput(name, t.attrs, t.formats, ops)
        for name, t in inputs.items()
    }
    return lower(expr, ctx, specs, ops, NameGen(), attr_dims={a: N for a in SCHEMA})


def test_matmul_needs_workspace():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"j", "k"}})
    inputs = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=1),
        "y": sparse_matrix(N, N, 0.3, attrs=("j", "k"), seed=2),
    }
    stream = lowered(Sum("j", Var("x") * Var("y")), ctx, inputs)
    out = OutputSpec(("i", "k"), ("dense", "sparse"), (N, N))
    assert workspace_needed(stream, out)


def test_elementwise_does_not_need_workspace():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"i", "j"}})
    inputs = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=3),
        "y": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=4),
    }
    stream = lowered(Var("x") + Var("y"), ctx, inputs)
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (N, N))
    assert not workspace_needed(stream, out)


def test_dense_output_never_needs_workspace():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"j", "k"}})
    inputs = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=5),
        "y": sparse_matrix(N, N, 0.3, attrs=("j", "k"), seed=6),
    }
    stream = lowered(Sum("j", Var("x") * Var("y")), ctx, inputs)
    out = OutputSpec(("i", "k"), ("dense", "dense"), (N, N))
    assert not workspace_needed(stream, out)


def test_column_sum_needs_workspace():
    """Σ_i x(i,j) iterates j under a dummy level -> sparse out needs ws."""
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}})
    inputs = {"x": sparse_matrix(N, N, 0.3, attrs=("i", "j"),
                                 formats=("sparse", "sparse"), seed=7)}
    stream = lowered(Sum("i", Var("x")), ctx, inputs)
    out = OutputSpec(("j",), ("sparse",), (N,))
    assert workspace_needed(stream, out)


def test_upper_level_out_of_order_rejected():
    """Σ_i x(i,j,k)... with (j,k) sparse output: the j level itself is
    revisited, which no single workspace can fix — must be rejected."""
    schema = Schema.of(i=range(N), j=range(N), k=range(N))
    ctx = TypeContext(schema, {"x": {"i", "j"}, "y": {"i", "k"}})
    inputs = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), formats=("sparse", "sparse"), seed=8),
        "y": sparse_matrix(N, N, 0.3, attrs=("i", "k"), formats=("sparse", "sparse"), seed=9),
    }
    stream = lowered(Sum("i", Var("x") * Var("y")), ctx, inputs)
    out = OutputSpec(("j", "k"), ("sparse", "sparse"), (N, N))
    with pytest.raises(ShapeError):
        workspace_needed(stream, out)


def test_workspace_output_is_sorted_and_deduped():
    """The flushed rows must have strictly increasing, unique coords."""
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"j", "k"}})
    tensors = {
        "x": sparse_matrix(N, N, 0.4, attrs=("i", "j"), seed=10),
        "y": sparse_matrix(N, N, 0.4, attrs=("j", "k"), seed=11),
    }
    out = OutputSpec(("i", "k"), ("dense", "sparse"), (N, N))
    kernel = compile_kernel(Sum("j", Var("x") * Var("y")), ctx, tensors, out,
                            name="ws_sorted")
    result = kernel.run(tensors, capacity=N * N)
    pos, crd = result.pos[1], result.crd[1]
    for r in range(N):
        row = crd[pos[r]:pos[r + 1]]
        assert all(row[a] < row[a + 1] for a in range(len(row) - 1))
    truth = denote(
        Sum("j", Var("x") * Var("y")), ctx,
        {n: tensor_to_krelation(t, SCHEMA) for n, t in tensors.items()},
    )
    assert tensor_to_krelation(result, SCHEMA).equal(truth)
