"""Fuzzing the commuting diagram: hypothesis-generated random
expression *trees* (not just a fixed corpus) evaluated through the
denotational semantics, the stream semantics, and the compiled
interpreter backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import tensor_from_krelation, tensor_to_krelation
from repro.krelation import KRelation, Schema
from repro.lang import Sum, TypeContext, Var, denote, shape_of
from repro.lang.stream_semantics import interpret
from repro.semirings import INT
from repro.streams import from_krelation, stream_to_krelation
from tests.strategies import sparse_data

N = 6
SCHEMA = Schema.of(a=range(N), b=range(N), c=range(N))
VARS = {"x": ("a", "b"), "y": ("b", "c"), "z": ("a", "b"), "v": ("b",)}


@st.composite
def expressions(draw, depth: int = 3):
    """A random well-shaped expression over the fixed variables."""
    if depth == 0:
        return Var(draw(st.sampled_from(sorted(VARS))))
    kind = draw(st.sampled_from(["var", "mul", "add", "sum"]))
    if kind == "var":
        return Var(draw(st.sampled_from(sorted(VARS))))
    if kind in ("mul", "add"):
        left = draw(expressions(depth=depth - 1))
        right = draw(expressions(depth=depth - 1))
        ctx = _ctx()
        lshape = shape_of(left, ctx)
        rshape = shape_of(right, ctx)
        if kind == "add" and not (lshape <= rshape or rshape <= lshape):
            # keep additions to comparable shapes so ⇑ has finite domains
            return left
        return left * right if kind == "mul" else left + right
    body = draw(expressions(depth=depth - 1))
    ctx = _ctx()
    shape = sorted(shape_of(body, ctx))
    if not shape:
        return body
    return Sum(draw(st.sampled_from(shape)), body)


def _ctx() -> TypeContext:
    return TypeContext(SCHEMA, {k: set(v) for k, v in VARS.items()})


@given(
    expr=expressions(),
    dx=sparse_data(("a", "b"), max_index=N, max_entries=6),
    dy=sparse_data(("b", "c"), max_index=N, max_entries=6),
    dz=sparse_data(("a", "b"), max_index=N, max_entries=6),
    dv=sparse_data(("b",), max_index=N, max_entries=4),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_expression_three_semantics(expr, dx, dy, dz, dv):
    ctx = _ctx()
    krels = {
        "x": KRelation(SCHEMA, INT, ("a", "b"), dx),
        "y": KRelation(SCHEMA, INT, ("b", "c"), dy),
        "z": KRelation(SCHEMA, INT, ("a", "b"), dz),
        "v": KRelation(SCHEMA, INT, ("b",), dv),
    }
    truth = denote(expr, ctx, krels)

    # runtime streams
    streams = {k: from_krelation(rel) for k, rel in krels.items()}
    via_streams = stream_to_krelation(interpret(expr, ctx, streams), SCHEMA)
    assert via_streams.equal(truth), f"stream semantics diverged on {expr!r}"

    # compiled (interpreter backend)
    out_attrs = SCHEMA.sort_shape(shape_of(expr, ctx))
    tensors = {
        k: tensor_from_krelation(rel, ("sparse",) * len(rel.shape),
                                 (N,) * len(rel.shape))
        for k, rel in krels.items()
    }
    output = (
        OutputSpec(out_attrs, ("dense",) * len(out_attrs), (N,) * len(out_attrs))
        if out_attrs else None
    )
    kernel = compile_kernel(expr, ctx, tensors, output, backend="interp",
                            name="fuzzed")
    result = kernel.run(tensors)
    if out_attrs:
        got = tensor_to_krelation(result, SCHEMA)
        assert got.equal(truth), f"compiled kernel diverged on {expr!r}"
    else:
        assert result == truth.total(), f"compiled kernel diverged on {expr!r}"
