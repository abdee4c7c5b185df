"""Shape checking and elaboration for ℒ (Figure 4b).

``shape_of`` implements the typing rules of Figure 4b, assigning each
expression a *shape* (a set of attributes).  ``elaborate`` rewrites the
broadcast sugar (:class:`BroadcastAdd`/:class:`BroadcastMul`) into core
syntax by inserting the ⇑ operators the paper says "can be inferred
from the argument shapes".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

from repro.krelation.schema import Schema, ShapeError
from repro.lang import ast
from repro.lang.ast import (
    Add,
    BroadcastAdd,
    BroadcastMul,
    Expand,
    Expr,
    Lit,
    Mul,
    Rename,
    Sum,
    Var,
)

Shape = FrozenSet[str]


class TypeContext:
    """Variable typing context τ : V → 2^A plus the ambient schema."""

    def __init__(self, schema: Schema, shapes: Mapping[str, frozenset | set | tuple | list]) -> None:
        self.schema = schema
        self.shapes: Dict[str, Shape] = {}
        for name, shape in shapes.items():
            self.shapes[name] = frozenset(schema.check_shape(shape))

    def shape(self, var: str) -> Shape:
        try:
            return self.shapes[var]
        except KeyError:
            raise ShapeError(f"unbound variable {var!r}") from None


def shape_of(expr: Expr, ctx: TypeContext) -> Shape:
    """The shape of an expression under the typing rules of Figure 4b.

    Broadcast nodes are typed at the union of their operand shapes.
    Raises :class:`ShapeError` for ill-typed expressions.
    """
    if isinstance(expr, Var):
        return ctx.shape(expr.name)
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, (Add, Mul)):
        left = shape_of(expr.left, ctx)
        right = shape_of(expr.right, ctx)
        if left != right:
            op = "+" if isinstance(expr, Add) else "*"
            raise ShapeError(
                f"operands of {op} have different shapes: "
                f"{sorted(left)} vs {sorted(right)}"
            )
        return left
    if isinstance(expr, (BroadcastAdd, BroadcastMul)):
        return shape_of(expr.left, ctx) | shape_of(expr.right, ctx)
    if isinstance(expr, Sum):
        body = shape_of(expr.body, ctx)
        if expr.attr not in body:
            raise ShapeError(
                f"Σ_{expr.attr} applied to expression of shape {sorted(body)}"
            )
        return body - {expr.attr}
    if isinstance(expr, Expand):
        body = shape_of(expr.body, ctx)
        if expr.attr in body:
            raise ShapeError(
                f"⇑_{expr.attr} applied to expression already of shape {sorted(body)}"
            )
        ctx.schema.attribute(expr.attr)
        return body | {expr.attr}
    if isinstance(expr, Rename):
        body = shape_of(expr.body, ctx)
        for src in expr.mapping:
            if src not in body:
                raise ShapeError(f"rename source {src!r} not in shape {sorted(body)}")
        image = [expr.mapping.get(a, a) for a in body]
        if len(set(image)) != len(image):
            raise ShapeError(f"rename {expr.mapping} is not injective on {sorted(body)}")
        for attr in image:
            ctx.schema.attribute(attr)
        return frozenset(image)
    raise TypeError(f"not a contraction expression: {expr!r}")


def elaborate(expr: Expr, ctx: TypeContext) -> Expr:
    """Rewrite broadcast sugar into core ℒ by inserting ⇑ operators.

    The result contains only core constructors, and ``shape_of`` on it
    agrees with ``shape_of`` on the input.
    """
    if isinstance(expr, (Var, Lit)):
        return expr
    if isinstance(expr, Add):
        return Add(elaborate(expr.left, ctx), elaborate(expr.right, ctx))
    if isinstance(expr, Mul):
        return Mul(elaborate(expr.left, ctx), elaborate(expr.right, ctx))
    if isinstance(expr, Sum):
        return Sum(expr.attr, elaborate(expr.body, ctx))
    if isinstance(expr, Expand):
        return Expand(expr.attr, elaborate(expr.body, ctx))
    if isinstance(expr, Rename):
        return Rename(expr.mapping, elaborate(expr.body, ctx))
    if isinstance(expr, (BroadcastAdd, BroadcastMul)):
        left = elaborate(expr.left, ctx)
        right = elaborate(expr.right, ctx)
        lshape = shape_of(left, ctx)
        rshape = shape_of(right, ctx)
        left = _expand_to(left, lshape, lshape | rshape, ctx)
        right = _expand_to(right, rshape, lshape | rshape, ctx)
        node = Add if isinstance(expr, BroadcastAdd) else Mul
        return node(left, right)
    raise TypeError(f"not a contraction expression: {expr!r}")


def _expand_to(expr: Expr, have: Shape, want: Shape, ctx: TypeContext) -> Expr:
    # deepest (largest-position) attributes first, so each ⇑ never has
    # to descend through a level inserted by a later ⇑ — outermost
    # levels are built last and stay directly indexable
    for attr in sorted(want - have, key=ctx.schema.position, reverse=True):
        expr = Expand(attr, expr)
    return expr
