"""Lowering ℒ to syntactic indexed streams (the first arrow of Figure 1).

This mirrors the runtime stream semantics
(:mod:`repro.lang.stream_semantics`) constructor for constructor, but
produces :class:`~repro.compiler.sstream.SStream` program fragments
instead of runtime automata.  Almost all of the compiler's work happens
here, in library code implementing the stream constructors — the
paper's "key organizing principle" (Section 3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional, Union

from repro.compiler.formats import FunctionInput, TensorInput
from repro.compiler.ir import ELit, NameGen, ilit
from repro.compiler.scalars import ScalarOps
from repro.compiler.sstream import (
    SStream,
    Value,
    deep_contract,
    deep_expand,
    is_sstream,
    sadd,
    smul,
)
from repro.krelation.schema import Schema, ShapeError
from repro.lang.ast import (
    Add,
    Expand,
    Expr,
    Lit,
    Mul,
    Rename,
    Sum,
    Var,
)
from repro.lang.typing import TypeContext, elaborate
from repro.streams.base import STAR

InputBinding = Union[TensorInput, FunctionInput]


def lower(
    expr: Expr,
    ctx: TypeContext,
    inputs: Mapping[str, InputBinding],
    ops: ScalarOps,
    ng: NameGen,
    search: str = "linear",
    attr_dims: Optional[Mapping[str, int]] = None,
    locate: bool = True,
) -> Value:
    """Lower a contraction expression to a syntactic stream.

    ``attr_dims`` supplies dimensions for attributes introduced by ⇑
    that must be iterated finitely (those appearing in the output).
    ``locate=False`` disables the random-access optimization in
    products and sums (pure co-iteration, for ablation).
    """
    core = elaborate(expr, ctx)
    attr_dims = dict(attr_dims or {})
    return _lower(core, ctx, inputs, ops, ng, search, attr_dims, locate)


def _lower(expr, ctx, inputs, ops, ng, search, attr_dims, locate=True) -> Value:
    if isinstance(expr, Var):
        try:
            binding = inputs[expr.name]
        except KeyError:
            raise ShapeError(f"variable {expr.name!r} has no input binding") from None
        want = ctx.schema.sort_shape(binding.attrs)
        if tuple(binding.attrs) != want:
            raise ShapeError(
                f"input {expr.name!r} level order {binding.attrs} violates the "
                f"global attribute ordering {want}; repack the tensor"
            )
        return binding.sstream(ng, search=search)
    if isinstance(expr, Lit):
        value = expr.value
        if not ops.semiring.is_element(value):
            value = ops.semiring.from_int(value)
        return ELit(value, ops.type)
    if isinstance(expr, Mul):
        return smul(
            _lower(expr.left, ctx, inputs, ops, ng, search, attr_dims, locate),
            _lower(expr.right, ctx, inputs, ops, ng, search, attr_dims, locate),
            ops,
            ng,
            locate,
        )
    if isinstance(expr, Add):
        return sadd(
            _lower(expr.left, ctx, inputs, ops, ng, search, attr_dims, locate),
            _lower(expr.right, ctx, inputs, ops, ng, search, attr_dims, locate),
            ops,
            ng,
            locate,
        )
    if isinstance(expr, Sum):
        return deep_contract(
            _lower(expr.body, ctx, inputs, ops, ng, search, attr_dims, locate),
            expr.attr, ng,
        )
    if isinstance(expr, Expand):
        body = _lower(expr.body, ctx, inputs, ops, ng, search, attr_dims, locate)
        dim = attr_dims.get(expr.attr)
        attribute = ctx.schema.attribute(expr.attr)
        if dim is None and attribute.domain is not None:
            dim = len(attribute.domain)
        return deep_expand(
            body,
            expr.attr,
            ctx.schema.position,
            ng,
            dim=None if dim is None else ilit(dim),
        )
    if isinstance(expr, Rename):
        body = _lower(expr.body, ctx, inputs, ops, ng, search, attr_dims, locate)
        return _srename(body, expr.mapping, ctx.schema)
    raise ShapeError(f"not a core contraction expression: {expr!r}")


def _srename(s: Value, mapping: Mapping[str, str], schema: Schema) -> Value:
    if not is_sstream(s):
        return s
    new_shape = tuple(mapping.get(a, a) for a in s.shape)
    if schema.sort_shape(new_shape) != new_shape:
        raise ShapeError(
            f"rename {dict(mapping)} reorders levels {s.shape} -> {new_shape}; "
            "the compiler cannot transpose in place — materialize a temporary "
            "in the new order first"
        )
    attr = s.attr if s.attr is STAR else mapping.get(s.attr, s.attr)
    locate = None
    if s.locate is not None:
        old_locate = s.locate
        locate = lambda i: _srename(old_locate(i), mapping, schema)
    return replace(
        s,
        attr=attr,
        shape=new_shape,
        value=_srename(s.value, mapping, schema),
        locate=locate,
        # a tensor's dim was checked under its old attribute, not this one
        dim=s.dim if attr == s.attr else None,
    )
