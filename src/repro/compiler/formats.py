"""Input bindings: data structures and functions as syntactic streams.

Each variable of a contraction expression is bound either to a
:class:`TensorInput` (a concrete :class:`~repro.data.Tensor`, lowered to
a chain of sparse/dense levels reading its pos/crd/vals arrays) or to a
:class:`FunctionInput` (a user-defined operation used as data — the
paper encodes predicates like Q9's substring match as boolean-valued
indexed streams, Section 8.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import (
    E,
    EAccess,
    EBinop,
    ECall,
    EVar,
    NameGen,
    Op,
    TI32,
    TINT,
    ilit,
)
from repro.compiler.scalars import ScalarOps
from repro.compiler.sstream import (
    SStream,
    Value,
    dense_level,
    function_level,
    sparse_level,
)


@dataclass(frozen=True)
class Param:
    """A kernel parameter: an array or a scalar."""

    name: str
    kind: str       # "array" | "scalar"
    ctype: str      # element type for arrays, value type for scalars


def crd_ctype(dtype) -> str:
    """The ``Param`` element type of a ``crd`` array of numpy ``dtype``,
    whose width :func:`repro.data.tensor.crd_dtype` chose."""
    return TI32 if np.dtype(dtype).itemsize == 4 else TINT


def widened(params: Sequence[Param]) -> List[int]:
    """The positions of the 32-bit ``crd`` operands a Python-run kernel
    reads as an int64 copy: NumPy keeps an int32 scalar's width through
    arithmetic (``k * dim`` would wrap where C promotes), so the
    Python backend and the interpreter compute on the width **P**
    declares.  An output ``crd`` is only stored into, in place."""
    return [i for i, p in enumerate(params)
            if p.ctype == TI32 and not p.name.startswith("out_")]


class TensorInput:
    """A tensor-shaped variable binding (formats, not data).

    Only the *structure* (attrs, formats, value type, the width of
    each ``crd``) is needed to build the kernel; the actual arrays are
    supplied at run time.  ``crd_types`` holds each level's ``crd``
    element type (None at a dense level); left out, every sparse level
    is 32-bit, the width of any dimension below 2**31.
    """

    def __init__(
        self,
        name: str,
        attrs: Sequence[str],
        formats: Sequence[str],
        ops: ScalarOps,
        crd_types: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        self.name = name
        self.attrs = tuple(attrs)
        self.formats = tuple(formats)
        self.ops = ops
        self.crd_types = tuple(
            crd_types if crd_types is not None
            else (TI32 if f == "sparse" else None for f in self.formats)
        )

    @classmethod
    def of(cls, name: str, tensor, ops: ScalarOps) -> "TensorInput":
        """The binding of ``tensor``, at the width of each of its ``crd``."""
        return cls(name, tensor.attrs, tensor.formats, ops, tuple(
            crd_ctype(tensor.crd[k].dtype) if f == "sparse" else None
            for k, f in enumerate(tensor.formats)
        ))

    @property
    def rank(self) -> int:
        return len(self.attrs)

    def split_kind(self, attr: str) -> Optional[str]:
        """How this operand participates in a shard split on ``attr``.

        Returns ``"whole"`` when the operand does not mention ``attr``
        (every shard reads it unchanged), ``"outer"`` when ``attr`` is
        the outermost level (the operand can be row-block sliced with
        :meth:`repro.data.tensor.Tensor.slice_outer`), and ``None`` when
        ``attr`` sits at an inner level — such an operand cannot be
        partitioned without re-formatting, so the planner must reject
        the candidate split index.
        """
        if attr not in self.attrs:
            return "whole"
        if self.attrs[0] == attr:
            return "outer"
        return None

    def params(self) -> List[Param]:
        out: List[Param] = []
        for k, fmt in enumerate(self.formats):
            if fmt == "sparse":
                out.append(Param(f"{self.name}_pos{k}", "array", TINT))
                out.append(Param(f"{self.name}_crd{k}", "array", self.crd_types[k]))
            else:
                out.append(Param(f"{self.name}_dim{k}", "scalar", TINT))
        out.append(Param(f"{self.name}_vals", "array", self.ops.type))
        return out

    def sstream(self, ng: NameGen, search: str = "linear") -> Value:
        """The nested syntactic stream reading this tensor's arrays."""

        def build(level: int, slot: E) -> Value:
            if level == self.rank:
                return EAccess(f"{self.name}_vals", slot, self.ops.type)
            attr = self.attrs[level]
            shape = self.attrs[level:]
            if self.formats[level] == "sparse":
                pos = f"{self.name}_pos{level}"
                lo = EAccess(pos, slot, TINT)
                hi = EAccess(pos, EBinop("+", slot, ilit(1), TINT), TINT)
                return sparse_level(
                    ng,
                    attr,
                    f"{self.name}_crd{level}",
                    lo,
                    hi,
                    lambda q: build(level + 1, q),
                    shape,
                    search=search,
                )
            dim = EVar(f"{self.name}_dim{level}", TINT)
            return dense_level(
                ng,
                attr,
                dim,
                lambda i: build(
                    level + 1, EBinop("+", EBinop("*", slot, dim, TINT), i, TINT)
                ),
                shape,
            )

        return build(0, ilit(0))


class FunctionInput:
    """A variable bound to a user-defined operation over its attributes.

    The op receives one integer index per attribute and returns a
    scalar; the stream is always ready (an implicitly represented,
    possibly infinite stream) so it must be multiplied by finite data.
    ``dims`` optionally bounds each level, making the stream finite.
    """

    def __init__(
        self,
        name: str,
        attrs: Sequence[str],
        op: Op,
        ops: ScalarOps,
        dims: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        if len(op.arg_types) != len(attrs):
            raise ValueError(
                f"op {op.name!r} arity {op.arity} != {len(attrs)} attributes"
            )
        self.name = name
        self.attrs = tuple(attrs)
        self.op = op
        self.ops = ops
        self.dims = tuple(dims) if dims is not None else (None,) * len(attrs)

    def params(self) -> List[Param]:
        return []

    def split_kind(self, attr: str) -> Optional[str]:
        """Function streams evaluate at *absolute* indices, but shard
        slicing rebases the split attribute to a local window — so a
        function input is only compatible with splits on attributes it
        does not mention."""
        return "whole" if attr not in self.attrs else None

    def sstream(self, ng: NameGen, search: str = "linear") -> Value:
        def build(level: int, idxs: Tuple[E, ...]) -> Value:
            if level == len(self.attrs):
                return ECall(self.op, list(idxs))
            attr = self.attrs[level]
            dim = self.dims[level]
            return function_level(
                ng,
                attr,
                lambda i: build(level + 1, idxs + (i,)),
                self.attrs[level:],
                dim=None if dim is None else ilit(dim),
            )

        return build(0, ())
