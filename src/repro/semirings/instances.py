"""Concrete semiring instances used throughout the reproduction."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.semirings.base import Semiring


class BoolSemiring(Semiring):
    """Booleans under (or, and): the semiring of ordinary relations."""

    name = "bool"
    zero = False
    one = True
    idempotent_add = True
    np_add = np.logical_or

    def add(self, x: bool, y: bool) -> bool:
        return x or y

    def mul(self, x: bool, y: bool) -> bool:
        return x and y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, bool)


class NatSemiring(Semiring):
    """Natural numbers under (+, *): the semiring of bags/multisets."""

    name = "nat"
    zero = 0
    one = 1
    np_add = np.add

    def add(self, x: int, y: int) -> int:
        return x + y

    def mul(self, x: int, y: int) -> int:
        return x * y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class IntSemiring(Semiring):
    """Integers under (+, *) (a ring, hence also a semiring)."""

    name = "int"
    zero = 0
    one = 1
    np_add = np.add

    def add(self, x: int, y: int) -> int:
        return x + y

    def mul(self, x: int, y: int) -> int:
        return x * y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)


class FloatSemiring(Semiring):
    """Doubles under (+, *), with tolerance-based equality.

    Floating-point addition is not associative, so this is a semiring
    only up to rounding; ``eq`` therefore compares with a relative
    tolerance.  This matches how the paper's evaluation (and TACO)
    treat floating-point results.
    """

    name = "float"
    zero = 0.0
    one = 1.0
    np_add = np.add

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> None:
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol

    def add(self, x: float, y: float) -> float:
        return x + y

    def mul(self, x: float, y: float) -> float:
        return x * y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, (float, int)) and not isinstance(x, bool)

    def eq(self, x: float, y: float) -> bool:
        return math.isclose(x, y, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def nonzero_mask(self, vals: Any) -> Any:
        # against 0 the relative term of isclose vanishes; NaN is kept
        return ~(np.abs(vals) <= self.abs_tol)


class MinPlusSemiring(Semiring):
    """The tropical (min, +) semiring over R ∪ {+inf}.

    Used for shortest-path style aggregations; one of the three scalar
    types exercised by the paper's evaluation.
    """

    name = "min-plus"
    zero = math.inf
    one = 0.0
    idempotent_add = True
    np_add = np.minimum

    def add(self, x: float, y: float) -> float:
        return min(x, y)

    def mul(self, x: float, y: float) -> float:
        return x + y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, (float, int)) and not isinstance(x, bool)


class MaxPlusSemiring(Semiring):
    """The (max, +) semiring over R ∪ {-inf} (longest paths, scheduling)."""

    name = "max-plus"
    zero = -math.inf
    one = 0.0
    idempotent_add = True
    np_add = np.maximum

    def add(self, x: float, y: float) -> float:
        return max(x, y)

    def mul(self, x: float, y: float) -> float:
        return x + y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, (float, int)) and not isinstance(x, bool)


class MaxTimesSemiring(Semiring):
    """The Viterbi semiring ([0, 1], max, *)."""

    name = "max-times"
    zero = 0.0
    one = 1.0
    idempotent_add = True
    np_add = np.maximum

    def add(self, x: float, y: float) -> float:
        return max(x, y)

    def mul(self, x: float, y: float) -> float:
        return x * y

    def is_element(self, x: Any) -> bool:
        return isinstance(x, (float, int)) and not isinstance(x, bool) and 0 <= x <= 1


BOOL = BoolSemiring()
NAT = NatSemiring()
INT = IntSemiring()
FLOAT = FloatSemiring()
MIN_PLUS = MinPlusSemiring()
MAX_PLUS = MaxPlusSemiring()
MAX_TIMES = MaxTimesSemiring()
