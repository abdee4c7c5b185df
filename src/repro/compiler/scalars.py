"""Scalar code generation per semiring.

Contraction expressions in Etch are parameterized by the choice of
scalars (Section 7.3): "as long as a semiring has a runtime
representation and implementations of (0, 1, +, ·), it can be used".
:class:`ScalarOps` is that runtime representation at the IR level —
it renders the semiring's constants and operations as **E** fragments.
The paper's evaluation uses boolean, floating point, and (min, +)
scalars; all three (plus integer and (max, +)) are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.compiler.ir import E, EBinop, ELit, TBOOL, TFLOAT, TINT
from repro.semirings.base import Semiring
from repro.semirings.instances import (
    BoolSemiring,
    FloatSemiring,
    IntSemiring,
    MaxPlusSemiring,
    MinPlusSemiring,
    NatSemiring,
)


@dataclass(frozen=True)
class ScalarOps:
    """IR-level (0, 1, +, ·) for one semiring."""

    semiring: Semiring
    type: str
    zero: E
    one: E
    add: Callable[[E, E], E]
    mul: Callable[[E, E], E]


def _binop(op: str, type_: str) -> Callable[[E, E], E]:
    def build(a: E, b: E) -> E:
        return EBinop(op, a, b, type_)

    return build


def scalar_ops_for(semiring: Semiring) -> ScalarOps:
    """The IR rendering of a semiring's scalar algebra."""
    if isinstance(semiring, BoolSemiring):
        return ScalarOps(
            semiring,
            TBOOL,
            ELit(False, TBOOL),
            ELit(True, TBOOL),
            _binop("||", TBOOL),
            _binop("&&", TBOOL),
        )
    if isinstance(semiring, (NatSemiring, IntSemiring)):
        return ScalarOps(
            semiring,
            TINT,
            ELit(0, TINT),
            ELit(1, TINT),
            _binop("+", TINT),
            _binop("*", TINT),
        )
    if isinstance(semiring, FloatSemiring):
        return ScalarOps(
            semiring,
            TFLOAT,
            ELit(0.0, TFLOAT),
            ELit(1.0, TFLOAT),
            _binop("+", TFLOAT),
            _binop("*", TFLOAT),
        )
    if isinstance(semiring, MinPlusSemiring):
        return ScalarOps(
            semiring,
            TFLOAT,
            ELit(math.inf, TFLOAT),
            ELit(0.0, TFLOAT),
            _binop("min", TFLOAT),
            _binop("+", TFLOAT),
        )
    if isinstance(semiring, MaxPlusSemiring):
        return ScalarOps(
            semiring,
            TFLOAT,
            ELit(-math.inf, TFLOAT),
            ELit(0.0, TFLOAT),
            _binop("max", TFLOAT),
            _binop("+", TFLOAT),
        )
    raise TypeError(
        f"semiring {semiring.name!r} has no IR scalar representation; "
        "supported: bool, nat, int, float, min-plus, max-plus"
    )
