"""User-defined operations as data (Figure 12, Section 7.2's implicit
streams): predicates and functions bound to variables."""

import numpy as np
import pytest

from repro.compiler import Op, TBOOL, TFLOAT, TINT
from repro.compiler.formats import FunctionInput
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.compiler.scalars import scalar_ops_for
from repro.data import Tensor, tensor_to_krelation
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT, INT
from repro.workloads import sparse_matrix, sparse_vector

N = 16
SCHEMA = Schema.of(i=range(N), j=range(N))


def test_function_input_predicate_filters():
    """y(i) = Σ x(i)·p(i) where p(i) = [i is even], an implicit stream."""
    ops = scalar_ops_for(FLOAT)
    even = Op(
        "even", (TINT,), TFLOAT,
        spec=lambda i: 1.0 if i % 2 == 0 else 0.0,
        c_expr=lambda i: f"(({i}) % 2 == 0 ? 1.0 : 0.0)",
    )
    p = FunctionInput("p", ("i",), even, ops)
    x = sparse_vector(N, 0.8, seed=1)
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "p": {"i"}})
    out = OutputSpec(("i",), ("dense",), (N,))
    for backend in ("c", "python", "interp"):
        kernel = compile_kernel(
            Var("x") * Var("p"), ctx, {"x": x, "p": p}, out,
            semiring=FLOAT, backend=backend, name="fi_even",
        )
        result = kernel.run({"x": x})
        expected = {
            key: v for key, v in x.to_dict().items() if key[0] % 2 == 0
        }
        assert result.to_dict() == pytest.approx(expected)


def test_function_input_two_attributes():
    """A computed matrix f(i,j) = i*10 + j multiplied against sparse data."""
    ops = scalar_ops_for(FLOAT)
    f = Op(
        "gridval", (TINT, TINT), TFLOAT,
        spec=lambda i, j: float(i * 10 + j),
        c_expr=lambda i, j: f"((double)(({i}) * 10 + ({j})))",
    )
    g = FunctionInput("g", ("i", "j"), f, ops)
    A = sparse_matrix(N, N, 0.2, attrs=("i", "j"), seed=2)
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "g": {"i", "j"}})
    kernel = compile_kernel(
        Sum("i", Sum("j", Var("A") * Var("g"))), ctx, {"A": A, "g": g},
        semiring=FLOAT, name="fi_grid",
    )
    got = kernel.run({"A": A})
    want = sum(v * (i * 10 + j) for (i, j), v in A.to_dict().items())
    assert abs(got - want) < 1e-9


@pytest.mark.parametrize("backend", ["c", "python", "interp"])
def test_op_arguments_are_the_int_they_declare(backend):
    """An op takes 64-bit ``TINT`` arguments even where the crd they are
    loaded from is 32-bit: ``i * j`` past 2**31 does not wrap (C casts
    the load, the Python backend and the interpreter read a widened
    copy)."""
    ops = scalar_ops_for(INT)
    prod = Op("prod", (TINT, TINT), TINT, spec=lambda i, j: i * j,
              c_expr=lambda i, j: f"(({i}) * ({j}))")
    g = FunctionInput("g", ("i", "j"), prod, ops)
    n = 100_000
    A = Tensor.from_coo(("i", "j"), ("sparse", "sparse"), (n, n),
                        [[3, 5], [70_000, 90_000]], [1, 2], INT)
    assert A.crd[0].dtype == A.crd[1].dtype == np.int32
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "g": {"i", "j"}})
    kernel = compile_kernel(
        Sum("i", Sum("j", Var("A") * Var("g"))), ctx, {"A": A, "g": g},
        semiring=INT, backend=backend, name="fi_prod",
    )
    assert kernel.run({"A": A}) == 1 * 3 * 5 + 2 * 70_000 * 90_000


def test_function_input_bounded_is_finite():
    """With dims, a FunctionInput is iterable on its own (dense loop)."""
    ops = scalar_ops_for(FLOAT)
    sq = Op(
        "sqf", (TINT,), TFLOAT,
        spec=lambda i: float(i * i),
        c_expr=lambda i: f"((double)(({i}) * ({i})))",
    )
    g = FunctionInput("g", ("i",), sq, ops, dims=(N,))
    ctx = TypeContext(SCHEMA, {"g": {"i"}})
    kernel = compile_kernel(Sum("i", Var("g")), ctx, {"g": g},
                            semiring=FLOAT, name="fi_sumsq")
    assert kernel.run({}) == sum(i * i for i in range(N))


def test_function_input_arity_mismatch():
    ops = scalar_ops_for(FLOAT)
    op = Op("one", (TINT,), TFLOAT, spec=lambda i: 1.0, c_expr=lambda i: "1.0")
    with pytest.raises(ValueError):
        FunctionInput("p", ("i", "j"), op, ops)
