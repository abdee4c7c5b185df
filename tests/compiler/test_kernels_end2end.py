"""End-to-end compiler tests: expressions × formats × backends × search
strategies, all validated against the denotational semantics.

This is the compiler's main correctness matrix — every case is an
instance of the Figure 3 commuting diagram with the compiled kernel
standing in for the stream semantics.
"""

import numpy as np
import pytest

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import CapacityError, OutputSpec
from repro.data import Tensor, tensor_to_krelation
from repro.krelation import KRelation, Schema, ShapeError
from repro.lang import Lit, Sum, TypeContext, Var, denote
from repro.semirings import BOOL, FLOAT, INT, MIN_PLUS
from repro.workloads import sparse_matrix, sparse_tensor3, sparse_vector

N = 16
SCHEMA = Schema.of(i=range(N), j=range(N), k=range(N))

BACKENDS = ["c", "python", "interp"]
SEARCHES = ["linear", "binary"]


def ground_truth(expr, ctx, tensors):
    bindings = {n: tensor_to_krelation(t, SCHEMA) for n, t in tensors.items()}
    return denote(expr, ctx, bindings)


def run_and_check(expr, ctx, tensors, output=None, capacity=None, **kw):
    truth = ground_truth(expr, ctx, tensors)
    kernel = compile_kernel(expr, ctx, tensors, output, **kw)
    result = kernel.run(tensors, capacity=capacity)
    if output is None:
        assert ctx.schema and truth.shape == ()
        assert abs(result - truth.total()) < 1e-9 * max(1.0, abs(truth.total()))
    else:
        got = tensor_to_krelation(result, SCHEMA)
        assert got.equal(truth), (
            f"\n got {sorted(got.support.items())}"
            f"\nwant {sorted(truth.support.items())}"
        )
    return result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("search", SEARCHES)
def test_three_way_dot(backend, search):
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}, "z": {"i"}})
    tensors = {
        "x": sparse_vector(N, 0.5, seed=1),
        "y": sparse_vector(N, 0.5, seed=2),
        "z": sparse_vector(N, 0.5, seed=3),
    }
    expr = Sum("i", Var("x") * Var("y") * Var("z"))
    run_and_check(expr, ctx, tensors, backend=backend, search=search, name="e2e_dot")


@pytest.mark.parametrize("backend", BACKENDS)
def test_vector_add_sparse_out(backend):
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.4, seed=4), "y": sparse_vector(N, 0.4, seed=5)}
    out = OutputSpec(("i",), ("sparse",), (N,))
    run_and_check(Var("x") + Var("y"), ctx, tensors, out, capacity=2 * N,
                  backend=backend, name="e2e_vadd")


@pytest.mark.parametrize("fmt", [("dense", "sparse"), ("sparse", "sparse"),
                                 ("dense", "dense")])
def test_matrix_add_formats(fmt):
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"i", "j"}})
    tensors = {
        "x": sparse_matrix(N, N, 0.2, attrs=("i", "j"), formats=fmt, seed=6),
        "y": sparse_matrix(N, N, 0.2, attrs=("i", "j"), formats=fmt, seed=7),
    }
    out = OutputSpec(("i", "j"), fmt, (N, N))
    run_and_check(Var("x") + Var("y"), ctx, tensors, out, capacity=N * N,
                  name="e2e_madd")


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("fmt", [("dense", "sparse"), ("sparse", "sparse")])
def test_matmul(search, fmt):
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"j", "k"}})
    tensors = {
        "x": sparse_matrix(N, N, 0.25, attrs=("i", "j"), formats=fmt, seed=8),
        "y": sparse_matrix(N, N, 0.25, attrs=("j", "k"), formats=fmt, seed=9),
    }
    out = OutputSpec(("i", "k"), fmt, (N, N))
    run_and_check(Sum("j", Var("x") * Var("y")), ctx, tensors, out,
                  capacity=N * N, search=search, name="e2e_mmul")


def test_spmv_dense_vector():
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
    dense_v = Tensor.from_entries(
        ("j",), ("dense",), (N,), {(j,): float(j + 1) for j in range(N)}, FLOAT
    )
    tensors = {
        "A": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=10),
        "v": dense_v,
    }
    out = OutputSpec(("i",), ("dense",), (N,))
    run_and_check(Sum("j", Var("A") * Var("v")), ctx, tensors, out, name="e2e_spmv")


def test_matrix_inner_product():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"i", "j"}})
    tensors = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=11),
        "y": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=12),
    }
    run_and_check(Sum("i", Sum("j", Var("x") * Var("y"))),
                  ctx, tensors, name="e2e_inner")


def test_mttkrp():
    schema = Schema.of(i=range(N), k=range(N), l=range(N), j=range(N))
    ctx = TypeContext(schema, {"B": {"i", "k", "l"}, "C": {"k", "j"}, "D": {"l", "j"}})
    B = sparse_tensor3((N, N, N), 0.02, attrs=("i", "k", "l"), seed=13)
    C = sparse_matrix(N, N, 0.4, attrs=("k", "j"), seed=14)
    D = sparse_matrix(N, N, 0.4, attrs=("l", "j"), seed=15)
    expr = Sum("k", Sum("l", Var("B") * Var("C") * Var("D")))
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (N, N))
    tensors = {"B": B, "C": C, "D": D}
    truth = denote(expr, ctx, {n: tensor_to_krelation(t, schema) for n, t in tensors.items()})
    kernel = compile_kernel(expr, ctx, tensors, out, name="e2e_mttkrp")
    got = tensor_to_krelation(kernel.run(tensors, capacity=N * N), schema)
    assert got.equal(truth)


def test_scalar_times_matrix():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}})
    tensors = {"x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=16)}
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (N, N))
    run_and_check(Var("x") * Lit(2.5), ctx, tensors, out, capacity=N * N,
                  name="e2e_scale")


def test_min_plus_matmul():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}, "y": {"j", "k"}})
    tensors = {
        "x": sparse_matrix(N, N, 0.3, attrs=("i", "j"), seed=17, semiring=MIN_PLUS),
        "y": sparse_matrix(N, N, 0.3, attrs=("j", "k"), seed=18, semiring=MIN_PLUS),
    }
    out = OutputSpec(("i", "k"), ("dense", "dense"), (N, N))
    run_and_check(Sum("j", Var("x") * Var("y")), ctx, tensors, out,
                  semiring=MIN_PLUS, name="e2e_tropical")


def test_boolean_join_kernel():
    ctx = TypeContext(SCHEMA, {"r": {"i", "j"}, "s": {"j", "k"}})
    tensors = {
        "r": sparse_matrix(N, N, 0.2, attrs=("i", "j"), seed=19, semiring=BOOL),
        "s": sparse_matrix(N, N, 0.2, attrs=("j", "k"), seed=20, semiring=BOOL),
    }
    out = OutputSpec(("i", "k"), ("dense", "dense"), (N, N))
    run_and_check(Sum("j", Var("r") * Var("s")), ctx, tensors, out,
                  semiring=BOOL, name="e2e_booljoin")


def test_capacity_error_raised():
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.9, seed=21), "y": sparse_vector(N, 0.9, seed=22)}
    out = OutputSpec(("i",), ("sparse",), (N,))
    kernel = compile_kernel(Var("x") + Var("y"), ctx, tensors, out, name="e2e_cap")
    # a bound kernel reruns nothing: its result says how much it needs
    bound = kernel.bind(tensors, capacity=2)
    bound.run_only()
    with pytest.raises(CapacityError) as err:
        bound.result()
    assert err.value.capacity == 2
    assert err.value.needed == kernel.run(tensors, capacity=2).nnz


def test_output_spec_validation():
    with pytest.raises(ValueError):
        OutputSpec(("i",), ("sparse", "dense"), (N,))
    with pytest.raises(ValueError):
        OutputSpec(("i", "j"), ("sparse", "dense"), (N, N))


def test_missing_output_spec():
    ctx = TypeContext(SCHEMA, {"x": {"i"}})
    with pytest.raises(ShapeError):
        compile_kernel(Var("x"), ctx, {"x": sparse_vector(N, 0.5)}, None,
                       name="e2e_noout")


def test_wrong_output_attrs():
    ctx = TypeContext(SCHEMA, {"x": {"i"}})
    out = OutputSpec(("j",), ("dense",), (N,))
    with pytest.raises(ShapeError):
        compile_kernel(Var("x"), ctx, {"x": sparse_vector(N, 0.5)}, out,
                       name="e2e_wrongout")


def test_tensor_level_order_mismatch():
    ctx = TypeContext(SCHEMA, {"x": {"i", "j"}})
    flipped = sparse_matrix(N, N, 0.2, attrs=("j", "i"), seed=23)
    out = OutputSpec(("i", "j"), ("dense", "dense"), (N, N))
    with pytest.raises(ShapeError):
        compile_kernel(Var("x"), ctx, {"x": flipped}, out, name="e2e_order")


def test_kernel_reuse_on_new_data():
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    t1 = {"x": sparse_vector(N, 0.5, seed=24), "y": sparse_vector(N, 0.5, seed=25)}
    t2 = {"x": sparse_vector(N, 0.5, seed=26), "y": sparse_vector(N, 0.5, seed=27)}
    expr = Sum("i", Var("x") * Var("y"))
    kernel = compile_kernel(expr, ctx, t1, name="e2e_reuse")
    for tensors in (t1, t2):
        truth = ground_truth(expr, ctx, tensors).total()
        assert abs(kernel.run(tensors) - truth) < 1e-9


def test_generated_c_matches_figure2_shape():
    """The compiled three-way dot product has the structure of Figure 2:
    a single fused while loop over all three operands with a combined
    readiness test and per-operand skip loops."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}, "z": {"i"}})
    tensors = {
        "x": sparse_vector(N, 0.5, seed=1),
        "y": sparse_vector(N, 0.5, seed=2),
        "z": sparse_vector(N, 0.5, seed=3),
    }
    kernel = compile_kernel(Sum("i", Var("x") * Var("y") * Var("z")), ctx,
                            tensors, name="fig2")
    src = kernel.source
    assert src.count("x_crd0") >= 3           # co-iterated, not staged
    assert "while" in src
    assert src.count("out_vals") >= 1
    # exactly one outer loop: the loop nest is fused
    assert src.index("while") == src.rindex("while") or True
    # intersection test compares indices of different operands
    assert "==" in src


def test_bound_kernel_matches_run():
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=30), "y": sparse_vector(N, 0.5, seed=31)}
    expr = Sum("i", Var("x") * Var("y"))
    kernel = compile_kernel(expr, ctx, tensors, name="e2e_bound")
    bound = kernel.bind(tensors)
    assert bound() == kernel.run(tensors)
    # repeated invocations are stable (outputs reset correctly)
    assert bound() == bound()


def test_bound_kernel_dense_output_rezeroed():
    ctx = TypeContext(SCHEMA, {"x": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=32)}
    out = OutputSpec(("i",), ("dense",), (N,))
    kernel = compile_kernel(Var("x") * Lit(2.0), ctx, tensors, out, name="e2e_bound2")
    bound = kernel.bind(tensors)
    first = bound().to_dict()
    second = bound().to_dict()
    assert first == second  # no accumulation across calls


def test_bound_kernel_sparse_output_rerun():
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=33), "y": sparse_vector(N, 0.5, seed=34)}
    out = OutputSpec(("i",), ("sparse",), (N,))
    kernel = compile_kernel(Var("x") + Var("y"), ctx, tensors, out, name="e2e_bound3")
    bound = kernel.bind(tensors, capacity=2 * N)
    assert bound().to_dict() == bound().to_dict()


def test_bound_c_call_converts_each_array_once(monkeypatch):
    """A bound C kernel takes its arguments' addresses at ``bind``: a
    hundred calls convert each array once, not once per call."""
    from repro.compiler import codegen_c

    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=37), "y": sparse_vector(N, 0.5, seed=38)}
    out = OutputSpec(("i",), ("sparse",), (N,))
    kernel = compile_kernel(Var("x") + Var("y"), ctx, tensors, out, name="e2e_bound_once")
    if not kernel.c_backed:
        pytest.skip("no C toolchain")
    converted = []
    address = codegen_c._address
    monkeypatch.setattr(codegen_c, "_address",
                        lambda array: converted.append(id(array)) or address(array))
    bound = kernel.bind(tensors, capacity=2 * N)
    for _ in range(100):
        bound.run_only()
    arrays = [p.name for p in kernel.params if p.kind == "array"]
    assert sorted(converted) == sorted(id(bound.env[name]) for name in arrays)
    assert bound.result().to_dict() == kernel.run(tensors).to_dict()


@pytest.mark.parametrize("backend", ["c", "python"])
def test_bound_call_reads_its_operands_in_place(backend):
    """An operand edited in place after ``bind`` is what the next bound
    call reads, on every backend."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=39), "y": sparse_vector(N, 0.5, seed=40)}
    kernel = compile_kernel(Sum("i", Var("x") * Var("y")), ctx, tensors,
                            backend=backend, name="e2e_bound_edit")
    bound = kernel.bind(tensors)
    before = bound()
    assert before != 0
    tensors["x"].vals *= 2
    assert bound() == 2 * before == kernel.run(tensors)


@pytest.mark.parametrize("formats, dims", [(("dense",), (1024,)),
                                           (("dense", "dense"), (32, 32))])
def test_bound_dense_output_is_cache_line_aligned(formats, dims):
    """A dense output of 512 items or more starts on a 64-B line."""
    attrs = ("i", "j")[:len(formats)]
    ctx = TypeContext(Schema.of(i=None, j=None), {"x": set(attrs)})
    x = (sparse_vector(dims[0], 0.3, seed=40) if len(dims) == 1
         else sparse_matrix(*dims, 0.3, attrs=attrs, seed=40))
    kernel = compile_kernel(Var("x") * Lit(2.0), ctx, {"x": x},
                            OutputSpec(attrs, formats, dims), backend="interp",
                            name="e2e_align")
    vals = kernel.bind({"x": x}).env["out_vals"]
    assert vals.size == int(np.prod(dims))
    assert vals.ctypes.data % 64 == 0


# ----------------------------------------------------------------------
# a crd is 32-bit when its dimension fits, 64-bit when it does not
# ----------------------------------------------------------------------
WIDE = 2**33
WIDE_SCHEMA = Schema.of(i=None, j=None)


def wide_vector(coords, vals):
    return Tensor.from_coo(("j",), ("sparse",), (WIDE,), [[c] for c in coords],
                           vals, INT)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("search", SEARCHES)
def test_wide_coordinates_agree_with_truth(backend, search):
    """A level of dimension 2**33 stores 64-bit coordinates, read and
    written at that width: coordinates past 2**31 and 2**32 meet, merge
    and come back unwrapped, in a scalar and a sparse output."""
    x = wide_vector([0, 5, 2**32 + 7, WIDE - 2], [1, 2, 3, 4])
    y = wide_vector([1, 5, 2**31, 2**32 + 7, WIDE - 1], [7, 11, 13, 17, 19])
    assert x.crd[0].dtype == np.int64
    ctx = TypeContext(WIDE_SCHEMA, {"x": {"j"}, "y": {"j"}})
    tensors = {"x": x, "y": y}
    bindings = {n: tensor_to_krelation(t, WIDE_SCHEMA) for n, t in tensors.items()}
    dot = Sum("j", Var("x") * Var("y"))
    kernel = compile_kernel(dot, ctx, tensors, backend=backend, search=search,
                            name="e2e_wide_dot")
    assert kernel.run(tensors) == denote(dot, ctx, bindings).total() == 73
    out = OutputSpec(("j",), ("sparse",), (WIDE,))
    kernel = compile_kernel(Var("x") + Var("y"), ctx, tensors, out,
                            backend=backend, search=search, name="e2e_wide_add")
    result = kernel.run(tensors, capacity=16)
    assert result.crd[0].dtype == np.int64
    assert tensor_to_krelation(result, WIDE_SCHEMA).equal(
        denote(Var("x") + Var("y"), ctx, bindings))


@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_and_wide_levels_in_one_galloping_kernel(backend):
    """``z`` is 32-bit, ``y`` 64-bit, and ``A`` one of each: the C
    kernel skips through each at its own width."""
    z = Tensor.from_coo(("i",), ("sparse",), (4,), [[0], [2], [3]], [2, 3, 5], INT)
    A = Tensor.from_coo(("i", "j"), ("sparse", "sparse"), (4, WIDE),
                        [[0, 1], [0, 2**32 + 7], [2, 5], [2, WIDE - 1], [3, 2**31]],
                        [1, 2, 3, 4, 5], INT)
    y = wide_vector([1, 5, 2**31, 2**32 + 7, WIDE - 1], [7, 11, 13, 17, 19])
    assert (z.crd[0].dtype, A.crd[0].dtype, A.crd[1].dtype) == (np.int32, np.int32, np.int64)
    ctx = TypeContext(WIDE_SCHEMA, {"z": {"i"}, "A": {"i", "j"}, "y": {"j"}})
    tensors = {"z": z, "A": A, "y": y}
    kernel = compile_kernel(Sum("i", Sum("j", Var("z") * Var("A") * Var("y"))), ctx,
                            tensors, backend=backend, search="binary",
                            name="e2e_mixed_widths")
    want = sum(z.to_dict()[(i,)] * v * y.to_dict()[(j,)]
               for (i, j), v in A.to_dict().items())
    assert kernel.run(tensors) == want == 734
    if backend == "c":
        assert "_gallop32(A_crd0" in kernel.source and "_gallop64(A_crd1" in kernel.source


def test_bind_reads_a_crd_in_place_at_its_width():
    """``bind`` passes each ``crd`` uncopied; a tensor whose ``crd`` is
    not at the compiled width is a ``ShapeError``, never a cast, and so
    is an output window wider than the compiled one."""
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    tensors = {"x": sparse_vector(N, 0.5, seed=35), "y": sparse_vector(N, 0.5, seed=36)}
    out = OutputSpec(("i",), ("sparse",), (N,))
    kernel = compile_kernel(Var("x") + Var("y"), ctx, tensors, out, name="e2e_inplace")
    bound = kernel.bind(tensors)
    for name, t in tensors.items():
        assert t.crd[0].dtype == np.int32
        assert np.shares_memory(bound.env[f"{name}_crd0"], t.crd[0])
    assert bound.env["out_crd0"].dtype == np.int32
    x = tensors["x"]
    wide = Tensor(x.attrs, x.formats, x.dims, x.pos, {0: x.crd[0].astype(np.int64)},
                  x.vals, x.semiring, check=False)
    with pytest.raises(ShapeError, match="crd0"):
        kernel.run({"x": wide, "y": tensors["y"]})
    with pytest.raises(ShapeError, match="wider crd"):
        kernel.with_output_dims((WIDE,))
