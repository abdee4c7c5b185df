"""The full commuting diagram (Figure 3), property-tested end to end:
random data and expressions evaluated through

  1. the denotational semantics 𝒯 (ground truth),
  2. the runtime indexed-stream semantics 𝒮,
  3. the Etch compiler (interpreted and compiled-C backends),

must all agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import tensor_from_krelation, tensor_to_krelation
from repro.krelation import KRelation, Schema
from repro.lang import Sum, TypeContext, Var, denote
from repro.lang.stream_semantics import interpret
from repro.semirings import INT
from repro.streams import from_krelation, stream_to_krelation
from tests.strategies import sparse_data

N = 8
SCHEMA = Schema.of(a=range(N), b=range(N), c=range(N))

# a small corpus of expression builders over variables x:{a,b}, y:{b,c}, z:{a,b}
EXPRESSIONS = [
    ("copy", lambda: Var("x"), ("a", "b")),
    ("scale", lambda: Var("x") * 2, ("a", "b")),
    ("ewise_mul", lambda: Var("x") * Var("z"), ("a", "b")),
    ("ewise_add", lambda: Var("x") + Var("z"), ("a", "b")),
    ("matmul", lambda: Sum("b", Var("x") * Var("y")), ("a", "c")),
    ("row_sums", lambda: Sum("b", Var("x")), ("a",)),
    ("total", lambda: Var("x").sum("a", "b"), ()),
    ("broadcast_join", lambda: Var("x") * Var("y"), ("a", "b", "c")),
    ("mixed_add", lambda: Sum("b", Var("x")) + Sum("b", Var("z")), ("a",)),
    ("sum_of_products",
     lambda: Sum("b", Var("x") * Var("z") + Var("x") * Var("x")), ("a",)),
]


@pytest.mark.parametrize("name,build,out_attrs", EXPRESSIONS)
@given(dx=sparse_data(("a", "b")), dy=sparse_data(("b", "c")),
       dz=sparse_data(("a", "b")))
@settings(max_examples=15, deadline=None)
def test_all_semantics_agree(name, build, out_attrs, dx, dy, dz):
    ctx = TypeContext(SCHEMA, {"x": {"a", "b"}, "y": {"b", "c"}, "z": {"a", "b"}})
    krels = {
        "x": KRelation(SCHEMA, INT, ("a", "b"), dx),
        "y": KRelation(SCHEMA, INT, ("b", "c"), dy),
        "z": KRelation(SCHEMA, INT, ("a", "b"), dz),
    }
    expr = build()

    truth = denote(expr, ctx, krels)

    # runtime streams
    streams = {k: from_krelation(v) for k, v in krels.items()}
    via_streams = stream_to_krelation(interpret(expr, ctx, streams), SCHEMA)
    assert via_streams.equal(truth), f"{name}: stream semantics disagrees"

    # compiled (interpreter backend: deterministic, no toolchain)
    tensors = {
        k: tensor_from_krelation(v, ("sparse",) * len(v.shape), (N,) * len(v.shape))
        for k, v in krels.items()
    }
    output = (
        OutputSpec(tuple(out_attrs), ("dense",) * len(out_attrs),
                   (N,) * len(out_attrs))
        if out_attrs else None
    )
    kernel = compile_kernel(expr, ctx, tensors, output, backend="interp",
                            name=f"tsem_{name}")
    result = kernel.run(tensors)
    if out_attrs:
        got = tensor_to_krelation(result, SCHEMA)
        assert got.equal(truth), f"{name}: compiled kernel disagrees"
    else:
        assert result == truth.total(), f"{name}: compiled scalar disagrees"


@pytest.mark.parametrize("name,build,out_attrs", EXPRESSIONS)
def test_c_backend_agrees_on_fixed_data(name, build, out_attrs):
    """One pass of the same corpus through gcc (deterministic data)."""
    dx = {(0, 1): 2, (1, 3): -1, (4, 4): 5, (7, 0): 3}
    dy = {(1, 2): 4, (3, 3): 1, (4, 0): -2}
    dz = {(0, 1): 7, (4, 4): -5, (6, 2): 1}
    ctx = TypeContext(SCHEMA, {"x": {"a", "b"}, "y": {"b", "c"}, "z": {"a", "b"}})
    krels = {
        "x": KRelation(SCHEMA, INT, ("a", "b"), dx),
        "y": KRelation(SCHEMA, INT, ("b", "c"), dy),
        "z": KRelation(SCHEMA, INT, ("a", "b"), dz),
    }
    expr = build()
    truth = denote(expr, ctx, krels)
    tensors = {
        k: tensor_from_krelation(v, ("sparse",) * len(v.shape), (N,) * len(v.shape))
        for k, v in krels.items()
    }
    output = (
        OutputSpec(tuple(out_attrs), ("dense",) * len(out_attrs),
                   (N,) * len(out_attrs))
        if out_attrs else None
    )
    kernel = compile_kernel(expr, ctx, tensors, output, backend="c",
                            name=f"tsemc_{name}")
    result = kernel.run(tensors)
    if out_attrs:
        assert tensor_to_krelation(result, SCHEMA).equal(truth)
    else:
        assert result == truth.total()
