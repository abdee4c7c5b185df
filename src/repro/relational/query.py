"""A convenience layer for running aggregate queries through Etch.

A :class:`Query` bundles a global attribute ordering, tensor-encoded
relations, and a contraction expression; ``run`` compiles and executes
the fused kernel.  This plays the role a query planner plays in a
DBMS: the user (or the TPC-H driver) picks the column ordering and the
per-table formats, "analogous to those made by a query optimizer"
(Section 8.2).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.compiler.formats import FunctionInput
from repro.compiler.build import KernelBuilder
from repro.compiler.kernel import OutputSpec
from repro.data.tensor import Tensor
from repro.krelation.schema import Attribute, Schema
from repro.lang.ast import Expr
from repro.lang.typing import TypeContext
from repro.semirings.base import Semiring
from repro.semirings.instances import FLOAT


class Query:
    """An aggregate contraction query over tensor-encoded relations."""

    def __init__(self, attr_order: Sequence[str], semiring: Semiring = FLOAT) -> None:
        self.attr_order = tuple(attr_order)
        self.semiring = semiring
        self._inputs: Dict[str, Union[Tensor, FunctionInput]] = {}
        self._shapes: Dict[str, frozenset] = {}

    def bind(self, name: str, source: Union[Tensor, FunctionInput]) -> "Query":
        """Bind a relation tensor or a computed predicate."""
        attrs = source.attrs
        self._inputs[name] = source
        self._shapes[name] = frozenset(attrs)
        return self

    def compile(
        self,
        expr: Expr,
        output: Optional[OutputSpec] = None,
        backend: str = "c",
        search: str = "linear",
        name: str = "query",
        attr_dims: Optional[Mapping[str, int]] = None,
    ):
        schema = Schema(Attribute(a, None) for a in self.attr_order)
        ctx = TypeContext(schema, self._shapes)
        builder = KernelBuilder(ctx, self.semiring, backend=backend, search=search)
        return builder.build(expr, self._inputs, output, name=name, attr_dims=attr_dims)

    def run(
        self,
        expr: Expr,
        output: Optional[OutputSpec] = None,
        backend: str = "c",
        search: str = "linear",
        name: str = "query",
        capacity: Optional[int] = None,
        attr_dims: Optional[Mapping[str, int]] = None,
    ):
        kernel = self.compile(
            expr, output, backend=backend, search=search, name=name,
            attr_dims=attr_dims,
        )
        tensors = {
            k: v for k, v in self._inputs.items() if isinstance(v, Tensor)
        }
        return kernel.run(tensors, capacity=capacity)
