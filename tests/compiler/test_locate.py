"""The locate (random-access) optimization and the δ fast path.

Both are semantics-preserving rewrites of the generated loop nest; the
tests check the emitted code shape *and* agreement with ground truth
with the optimization on and off."""

import numpy as np
import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor, tensor_to_krelation
from repro.krelation import Schema, ShapeError
from repro.lang import Sum, TypeContext, Var, denote
from repro.semirings import FLOAT
from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

N = 16
SCHEMA = Schema.of(i=range(N), j=range(N), k=range(N))


def spmv_setting():
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "x": {"j"}})
    A = sparse_matrix(N, N, 0.4, attrs=("i", "j"), seed=1)
    x = dense_vector(N, attr="j", seed=2)
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (N,))
    return expr, ctx, {"A": A, "x": x}, out


def test_spmv_located_code_shape():
    """With locate on, the dense vector is indexed by the sparse
    coordinate (no co-iteration variable for x's level)."""
    expr, ctx, tensors, out = spmv_setting()
    kernel = compile_kernel(expr, ctx, tensors, out, name="loc_spmv_on")
    assert "x_vals[" in kernel.source
    # direct access through A's coordinate array (offset folded away)
    assert "x_vals[A_crd1[" in kernel.source.replace("\n", "")


def test_spmv_unlocated_co_iterates():
    expr, ctx, tensors, out = spmv_setting()
    kernel = compile_kernel(expr, ctx, tensors, out, locate=False,
                            name="loc_spmv_off")
    # co-iteration keeps a dense position variable for x's level
    assert "j_i" in kernel.source


@pytest.mark.parametrize("locate", [True, False])
def test_spmv_agrees_with_truth(locate):
    expr, ctx, tensors, out = spmv_setting()
    truth = denote(expr, ctx,
                   {n: tensor_to_krelation(t, SCHEMA) for n, t in tensors.items()})
    kernel = compile_kernel(expr, ctx, tensors, out, locate=locate,
                            name=f"loc_spmv_{locate}")
    got = tensor_to_krelation(kernel.run(tensors), SCHEMA)
    assert got.equal(truth)


@pytest.mark.parametrize("locate", [True, False])
def test_mttkrp_agrees_with_truth(locate):
    schema = Schema.of(i=range(N), k=range(N), l=range(N), j=range(N))
    ctx = TypeContext(schema, {"B": {"i", "k", "l"}, "C": {"k", "j"}, "D": {"l", "j"}})
    B = sparse_tensor3((N, N, N), 0.02, attrs=("i", "k", "l"), seed=3)
    C = dense_matrix(N, N, attrs=("k", "j"), seed=4)
    D = dense_matrix(N, N, attrs=("l", "j"), seed=5)
    expr = Sum("k", Sum("l", Var("B") * Var("C") * Var("D")))
    out = OutputSpec(("i", "j"), ("dense", "dense"), (N, N))
    tensors = {"B": B, "C": C, "D": D}
    truth = denote(expr, ctx,
                   {n: tensor_to_krelation(t, schema) for n, t in tensors.items()})
    kernel = compile_kernel(expr, ctx, tensors, out, locate=locate,
                            name=f"loc_mttkrp_{locate}")
    got = tensor_to_krelation(kernel.run(tensors), schema)
    assert got.equal(truth)


def test_dense_dense_product_locates_second_operand():
    """Both operands locatable: the first drives, preserving order."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    x = dense_vector(N, attr="i", seed=6)
    y = dense_vector(N, attr="i", seed=7)
    expr = Sum("i", Var("x") * Var("y"))
    kernel = compile_kernel(expr, ctx, {"x": x, "y": y}, name="loc_dd")
    got = kernel.run({"x": x, "y": y})
    want = float(np.dot(x.vals, y.vals))
    assert got == pytest.approx(want)
    # only one dense loop variable: y is located, not iterated
    assert "y_i0" not in kernel.source


def test_expansion_is_located_for_free():
    """⇑ (replicate) levels are implicit streams; multiplying them never
    co-iterates — the broadcast costs nothing (Section 5.1.3's 'does
    not necessitate copying or recomputing')."""
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"i"}})
    A = sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=8)
    v = dense_vector(N, attr="i", seed=9)
    expr = Sum("i", Sum("j", Var("A") * Var("v")))  # v broadcast over j
    kernel = compile_kernel(expr, ctx, {"A": A, "v": v}, name="loc_bcast")
    truth = denote(expr, ctx,
                   {"A": tensor_to_krelation(A, SCHEMA),
                    "v": tensor_to_krelation(v, SCHEMA)}).total()
    assert kernel.run({"A": A, "v": v}) == pytest.approx(truth)


def test_dim_mismatch_caught_at_run_time():
    """Located reads have no bounds checks; the wrapper must reject
    tensors that disagree on an attribute's dimension."""
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "x": {"j"}})
    A = sparse_matrix(N, N, 0.4, attrs=("i", "j"), seed=1)
    x_small = Tensor.from_entries(("j",), ("dense",), (N - 4,),
                                  {(0,): 1.0}, FLOAT)
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (N,))
    kernel = compile_kernel(expr, ctx, {"A": A, "x": dense_vector(N, attr="j")},
                            out, name="loc_dims")
    with pytest.raises(ShapeError):
        kernel.run({"A": A, "x": x_small})


def test_fast_path_advance_in_ready_branch():
    """A bare sparse level's loop advances by increment, not by a scan."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}})
    from repro.workloads import sparse_vector

    x = sparse_vector(N, 0.5, seed=10)
    kernel = compile_kernel(Sum("i", Var("x")), ctx, {"x": x}, name="loc_adv")
    # the sum-all loop body contains `q = q + 1` with no `<=` scan
    assert "(_ti_q0 + 1)" in kernel.source
    assert "<=" not in kernel.source
