"""Einsum-style entry point for sparse tensor algebra.

The index letters of the spec become the attributes of an ℒ expression
(Figure 5's translation): each operand is a variable, juxtaposition is
broadcast multiplication, and letters absent from the output are
contracted with Σ.  The *order of first appearance* of letters across
the inputs fixes the global attribute ordering — i.e. the loop nest —
unless an explicit ``order`` is given (Section 8.1 shows the ordering
choice changes asymptotics).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.compiler.build import KernelBuilder
from repro.compiler.kernel import OutputSpec
from repro.compiler.opt import DEFAULT_OPT_LEVEL
from repro.data.tensor import Tensor
from repro.krelation.schema import Attribute, Schema, ShapeError
from repro.lang.ast import Expr, Var, sum_over
from repro.lang.typing import TypeContext
from repro.semirings.base import Semiring

_SPEC = re.compile(r"^([a-zA-Z]+(?:,[a-zA-Z]+)*)->([a-zA-Z]*)$")


def parse_spec(spec: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Parse ``"ij,jk->ik"`` into per-operand index tuples and output."""
    m = _SPEC.match(spec.replace(" ", ""))
    if not m:
        raise ValueError(f"malformed einsum spec {spec!r}")
    operands = tuple(tuple(part) for part in m.group(1).split(","))
    output = tuple(m.group(2))
    seen = {letter for letters in operands for letter in letters}
    for letter in output:
        if letter not in seen:
            raise ValueError(f"output index {letter!r} not among the inputs")
    if len(set(output)) != len(output):
        raise ValueError(f"repeated output index in {spec!r}")
    return operands, output


def einsum_expr(spec: str) -> Tuple[Expr, Tuple[Tuple[str, ...], ...], Tuple[str, ...]]:
    """The ℒ expression for a spec, with operands named t0, t1, …."""
    operands, output = parse_spec(spec)
    seen = set()
    for letters in operands:
        seen.update(letters)
    for letter in output:
        if letter not in seen:
            raise ValueError(f"output index {letter!r} not among the inputs")
    expr: Expr = Var("t0")
    for k in range(1, len(operands)):
        expr = expr * Var(f"t{k}")
    contracted = [a for a in _appearance_order(operands) if a not in output]
    return sum_over(contracted, expr), operands, output


def _appearance_order(operands: Sequence[Sequence[str]]) -> Tuple[str, ...]:
    order = []
    for letters in operands:
        for a in letters:
            if a not in order:
                order.append(a)
    return tuple(order)


@dataclass(frozen=True)
class EinsumPlan:
    """Everything :func:`einsum` decides *before* compiling.

    Splitting planning from building lets a caller — the serving layer
    above all — canonicalize a query, compute the kernel cache key via
    :meth:`~repro.compiler.build.KernelBuilder.cache_key`, and make
    admission decisions (coalescing, circuit-breaker rejection) without
    paying for a compile.  ``inputs`` carries the operand tensors
    relabeled to the canonical ``t0, t1, …`` names.
    """

    expr: Expr
    inputs: Dict[str, Tensor]
    output: Optional[OutputSpec]
    attr_order: Tuple[str, ...]
    attr_dims: Dict[str, int]
    name: str
    semiring: Semiring
    backend: str
    search: str
    opt_level: int = DEFAULT_OPT_LEVEL
    #: the builder, specs, dims and key :meth:`cache_key` prepared
    _prepared: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def builder(self) -> KernelBuilder:
        ctx = TypeContext(
            Schema(Attribute(a, None) for a in self.attr_order),
            {v: frozenset(t.attrs) for v, t in self.inputs.items()},
        )
        return KernelBuilder(
            ctx, self.semiring, backend=self.backend, search=self.search,
            opt_level=self.opt_level,
        )

    def cache_key(self) -> Optional[str]:
        """The canonical kernel cache key, computed without compiling;
        the validated request behind it is kept for :meth:`build`."""
        prepared = self.builder()._prepare(
            self.expr, self.inputs, self.output, self.name, self.attr_dims,
        )
        object.__setattr__(self, "_prepared", prepared)
        return prepared[3]

    def build(self):
        """Compile (or cache-restore) the kernel for this plan, from the
        request :meth:`cache_key` validated if it was asked first."""
        return self.builder().build(
            self.expr, self.inputs, self.output,
            name=self.name, attr_dims=self.attr_dims,
            _prepared=self._prepared,
        )


def plan_einsum(
    spec: str,
    *tensors: Tensor,
    output_formats: Optional[Sequence[str]] = None,
    order: Optional[Sequence[str]] = None,
    semiring: Optional[Semiring] = None,
    backend: str = "c",
    search: str = "linear",
    opt_level: int = DEFAULT_OPT_LEVEL,
    kernel_name: Optional[str] = None,
) -> EinsumPlan:
    """Canonicalize an einsum request into an :class:`EinsumPlan`.

    Performs all of :func:`einsum`'s validation (spec syntax, rank and
    dimension agreement, level-order conformance) but stops short of
    compiling, so errors surface cheaply and the cache key is available
    up front.
    """
    operands, output = parse_spec(spec)
    if len(operands) != len(tensors):
        raise ValueError(f"spec has {len(operands)} operands, got {len(tensors)} tensors")
    attr_order = tuple(order) if order is not None else _appearance_order(operands)

    dims: Dict[str, int] = {}
    for letters, tensor in zip(operands, tensors):
        if len(letters) != tensor.order:
            raise ShapeError(
                f"operand {letters} has rank {len(letters)}, tensor has {tensor.order}"
            )
        for a, d in zip(letters, tensor.dims):
            if dims.setdefault(a, d) != d:
                raise ShapeError(f"inconsistent dimension for index {a!r}")

    schema = Schema(Attribute(a, None) for a in attr_order)
    expr, _, _ = einsum_expr(spec)

    inputs = {}
    for k, (letters, tensor) in enumerate(zip(operands, tensors)):
        want = schema.sort_shape(letters)
        if tuple(letters) != want:
            raise ShapeError(
                f"operand {k} level order {letters} violates the attribute "
                f"ordering {attr_order}; repack() it to {want} first"
            )
        relabeled = Tensor(
            want, tensor.formats, tensor.dims, tensor.pos, tensor.crd,
            tensor.vals, tensor.semiring, check=False,
        )
        inputs[f"t{k}"] = relabeled

    if semiring is None:
        semiring = tensors[0].semiring

    out_attrs = schema.sort_shape(output)
    out_spec = None
    if out_attrs:
        if tuple(output) != out_attrs:
            raise ShapeError(
                f"output order {output} must follow the attribute ordering "
                f"{attr_order} (got {out_attrs})"
            )
        formats = tuple(output_formats) if output_formats else ("dense",) * len(out_attrs)
        out_spec = OutputSpec(out_attrs, formats, tuple(dims[a] for a in out_attrs))

    name = kernel_name or ("einsum_" + re.sub(r"[^a-zA-Z0-9]", "_", spec))
    ordered_dims = {a: dims[a] for a in attr_order if a in dims}
    return EinsumPlan(
        expr=expr, inputs=inputs, output=out_spec, attr_order=attr_order,
        attr_dims=ordered_dims, name=name, semiring=semiring,
        backend=backend, search=search, opt_level=opt_level,
    )


def einsum(
    spec: str,
    *tensors: Tensor,
    output_formats: Optional[Sequence[str]] = None,
    order: Optional[Sequence[str]] = None,
    semiring: Optional[Semiring] = None,
    backend: str = "c",
    search: str = "linear",
    capacity: Optional[int] = None,
    kernel_name: Optional[str] = None,
) -> Union[Tensor, float, int, bool]:
    """Evaluate an einsum over level-format tensors with a fused kernel.

    Tensors must present their levels in an order consistent with the
    global attribute ordering (``order`` or first-appearance order);
    use :func:`repack` to transpose beforehand if needed.
    """
    plan = plan_einsum(
        spec, *tensors, output_formats=output_formats, order=order,
        semiring=semiring, backend=backend, search=search,
        kernel_name=kernel_name,
    )
    kernel = plan.build()
    return kernel.run(plan.inputs, capacity=capacity)


def tensor_add(
    x: Tensor,
    y: Tensor,
    output_formats: Optional[Sequence[str]] = None,
    backend: str = "c",
    search: str = "linear",
    capacity: Optional[int] = None,
) -> Tensor:
    """Elementwise sum of two same-shape tensors (fused merge loop)."""
    if x.attrs != y.attrs or x.dims != y.dims:
        raise ShapeError(f"cannot add {x!r} and {y!r}")
    schema = Schema(Attribute(a, None) for a in x.attrs)
    ctx = TypeContext(schema, {"x": frozenset(x.attrs), "y": frozenset(x.attrs)})
    expr = Var("x") + Var("y")
    formats = tuple(output_formats) if output_formats else x.formats
    out = OutputSpec(tuple(x.attrs), formats, x.dims)
    builder = KernelBuilder(ctx, x.semiring, backend=backend, search=search)
    kernel = builder.build(expr, {"x": x, "y": y}, out, name="tensor_add")
    return kernel.run({"x": x, "y": y}, capacity=capacity)


def repack(
    tensor: Tensor,
    attrs: Sequence[str],
    formats: Optional[Sequence[str]] = None,
) -> Tensor:
    """Transpose/reformat a tensor (a materialized temporary)."""
    attrs = tuple(attrs)
    if sorted(attrs) != sorted(tensor.attrs):
        raise ValueError(f"{attrs} is not a permutation of {tensor.attrs}")
    perm = [tensor.attrs.index(a) for a in attrs]
    coords, vals = tensor.to_coo()
    formats = tuple(formats) if formats is not None else tensor.formats
    dims = tuple(tensor.dims[p] for p in perm)
    return Tensor.from_coo(
        attrs, formats, dims, coords[:, perm], vals, tensor.semiring)
