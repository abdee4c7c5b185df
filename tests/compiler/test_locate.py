"""The locate (random-access) optimization — in products, in sums of
dense levels and at a densely driven CSR row level — and the δ fast path.

Both are semantics-preserving rewrites of the generated loop nest; the
tests check the emitted code shape *and* agreement with ground truth
with the optimization on and off."""

import numpy as np
import pytest

from repro.compiler import Op, TFLOAT, TINT
from repro.compiler.build import compile_kernel
from repro.compiler.formats import FunctionInput
from repro.compiler.kernel import OutputSpec
from repro.compiler.scalars import scalar_ops_for
from repro.data import Tensor, tensor_to_krelation
from repro.krelation import Schema, ShapeError
from repro.lang import Sum, TypeContext, Var, denote
from repro.lang.ast import Rename
from repro.semirings import FLOAT
from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

from tests.compiler.test_codegen import _whiles

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


# ----------------------------------------------------------------------
# ⊕ of dense levels, and densely driven CSR rows
# ----------------------------------------------------------------------
BACKENDS = ("c", "python", "interp")


def _truth(expr, ctx, tensors, schema):
    return denote(expr, ctx, {n: tensor_to_krelation(t, schema)
                              for n, t in tensors.items()})


def _merges(kernel):
    return [w for w in _whiles(kernel.loop_ir) if "||" in repr(w.cond)]


def _square_plus_one():
    """``i ↦ i² + 1``: a function input with no zero in its range."""
    return Op("sq1", (TINT,), TFLOAT, spec=lambda i: float(i * i + 1),
              c_expr=lambda i: f"((double)(({i}) * ({i}) + 1))")


@pytest.mark.parametrize("locate", [True, False])
def test_sum_of_dense_levels_is_one_dense_level(locate):
    """``x ⊕ y`` on two dense vectors iterates ``x``'s dimension once
    and locates into both; ``locate=False`` keeps the two-way merge."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": dense_vector(N, attr="i", seed=11),
               "y": dense_vector(N, attr="i", seed=12)}
    expr = Var("x") + Var("y")
    truth = _truth(expr, ctx, tensors, SCHEMA)
    for fmt in ("dense", "sparse"):
        out = OutputSpec(("i",), (fmt,), (N,))
        for backend in BACKENDS:
            kernel = compile_kernel(expr, ctx, tensors, out, locate=locate,
                                    backend=backend, cache=False,
                                    name=f"loc_dsum_{locate}")
            assert bool(_merges(kernel)) is not locate
            got = kernel.run(tensors, capacity=N)
            assert tensor_to_krelation(got, SCHEMA).equal(truth), backend


def test_sum_with_a_literal_dim_still_merges():
    """A ``FunctionInput``'s dims are literals nothing checks against a
    tensor's: ``g ⊕ x`` with ``g`` over 5 indices and ``x`` over 10
    must merge, not iterate 5 and drop ``x``'s last five entries."""
    n = 10
    schema = Schema.of(i=range(n))
    ctx = TypeContext(schema, {"g": {"i"}, "x": {"i"}})
    x = dense_vector(n, attr="i", seed=13)
    g = FunctionInput("g", ("i",), _square_plus_one(), scalar_ops_for(FLOAT), dims=(5,))
    g_data = Tensor.from_entries(("i",), ("dense",), (5,),
                                 {(i,): float(i * i + 1) for i in range(5)}, FLOAT)
    truth = _truth(Var("g") + Var("x"), ctx, {"g": g_data, "x": x}, schema)
    assert len(truth.support) == n
    for fmt in ("dense", "sparse"):
        out = OutputSpec(("i",), (fmt,), (n,))
        for backend in BACKENDS:
            kernel = compile_kernel(Var("g") + Var("x"), ctx, {"g": g, "x": x},
                                    out, semiring=FLOAT, backend=backend,
                                    cache=False, name="loc_fsum")
            assert _merges(kernel)
            got = kernel.run({"x": x}, capacity=n)
            assert tensor_to_krelation(got, schema).equal(truth), backend


def _csr_rows(kernel):
    """The innermost loops that store into the output's ``pos``: the
    row fills of a ``DensePosDest``."""
    return [w for w in _whiles(kernel.loop_ir)
            if "out_pos1" in repr(w.body) and not _whiles(w.body)]


def test_literal_driven_csr_rows_keep_their_fills():
    """A CSR output whose row level is driven by a literal dim (here a
    ``FunctionInput`` over the first 5 of 10 rows) fills the rows the
    loop never reaches; one driven by a tensor's row level needs no
    fill at all."""
    n, m = 10, 6
    schema = Schema.of(i=range(n), j=range(m))
    ctx = TypeContext(schema, {"g": {"i"}, "v": {"i"}, "A": {"i", "j"}})
    A = sparse_matrix(n, m, 0.5, attrs=("i", "j"), seed=14)
    v = dense_vector(n, attr="i", seed=15)
    g = FunctionInput("g", ("i",), _square_plus_one(), scalar_ops_for(FLOAT), dims=(5,))
    g_data = Tensor.from_entries(("i",), ("dense",), (5,),
                                 {(i,): float(i * i + 1) for i in range(5)}, FLOAT)
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (n, m))
    cases = (("g", g, g_data, {"A": A}, 2), ("v", v, v, {"A": A, "v": v}, 0))
    for name, binding, data, tensors, fills in cases:
        expr = Var(name) * Var("A")
        truth = _truth(expr, ctx, {name: data, "A": A}, schema)
        want = Tensor.from_entries(("i", "j"), ("dense", "sparse"), (n, m),
                                   dict(truth.items()), FLOAT)
        for backend in BACKENDS:
            kernel = compile_kernel(expr, ctx, {name: binding, "A": A}, out,
                                    semiring=FLOAT, backend=backend, cache=False,
                                    name=f"loc_fcsr_{name}")
            assert len(_csr_rows(kernel)) == fills
            got = kernel.run(tensors, capacity=n * m)
            assert got.pos[1].tolist() == want.pos[1].tolist(), backend
            assert got.to_dict() == want.to_dict(), backend


def test_renamed_csr_rows_keep_their_fills():
    """A renamed level's dimension was checked under its old attribute,
    not the output's: its rows are filled as a sparse level's are."""
    schema = Schema.of(k=range(10), i=range(5), j=range(4))
    ctx = TypeContext(schema, {"A": {"i", "j"}})
    A = sparse_matrix(5, 4, 0.5, attrs=("i", "j"), seed=15)
    out = OutputSpec(("k", "j"), ("dense", "sparse"), (10, 4))
    for backend in BACKENDS:
        kernel = compile_kernel(Rename({"i": "k"}, Var("A")), ctx, {"A": A},
                                out, backend=backend, cache=False,
                                name="loc_rncsr")
        assert len(_csr_rows(kernel)) == 2
        got = kernel.run({"A": A}, capacity=20)
        assert got.to_dict() == A.to_dict()
        assert got.pos[1].tolist() == A.pos[1].tolist() + [A.nnz] * 5
