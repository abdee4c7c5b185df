"""The abstract semiring interface (Definition 4.5)."""

from __future__ import annotations

from typing import Any, Iterable


class SemiringElementError(TypeError):
    """Raised when a value does not belong to a semiring's carrier set."""


class Semiring:
    """A commutative-monoid/monoid pair with distributivity and absorption.

    Subclasses define ``zero``, ``one``, ``add`` and ``mul``.  The base
    class derives sums, products, powers, and an equality test that
    subclasses with approximate carriers (floats) may refine.

    Instances are stateless; the provided singletons should be reused
    rather than re-instantiated.
    """

    name: str = "semiring"

    #: Identity of addition (absorbing for multiplication).
    zero: Any = None
    #: Identity of multiplication.
    one: Any = None

    #: Whether addition is idempotent (x + x = x).  Idempotent semirings
    #: admit extra rewrites (e.g. boolean projection is union).
    idempotent_add: bool = False

    #: Whether addition is commutative.  True for every semiring in the
    #: paper's sense (Definition 4.5 requires a commutative monoid), so
    #: the default is True; the flag exists so the static stream-property
    #: analysis and the shard merger can state — and check — that the
    #: contracted ⊕-merge of Theorem 6.1 relies on it, and so tests can
    #: model a non-commutative ⊕ and watch the planner refuse the split.
    commutative_add: bool = True

    #: Optional numpy ufunc implementing ⊕ elementwise over arrays
    #: (``np.add`` for (+, ·), ``np.minimum`` for (min, +), …).  When
    #: present, the parallel runtime's merger ⊕-reduces shard partials
    #: with one vectorized call; when ``None``, :meth:`elementwise_add`
    #: falls back to a scalar loop through :meth:`add`.
    np_add: Any = None

    def add(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def mul(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def is_element(self, x: Any) -> bool:
        """Whether ``x`` belongs to the carrier set."""
        raise NotImplementedError

    def check_element(self, x: Any) -> Any:
        if not self.is_element(x):
            raise SemiringElementError(f"{x!r} is not an element of {self.name}")
        return x

    def eq(self, x: Any, y: Any) -> bool:
        """Semantic equality of two carrier elements."""
        return x == y

    def is_zero(self, x: Any) -> bool:
        return self.eq(x, self.zero)

    def nonzero_mask(self, vals: Any) -> Any:
        """``not is_zero`` over a numpy array (refined with :meth:`eq`)."""
        return vals != self.zero

    def sum(self, xs: Iterable[Any]) -> Any:
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def product(self, xs: Iterable[Any]) -> Any:
        acc = self.one
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def elementwise_add(self, x: Any, y: Any) -> Any:
        """⊕ applied pointwise to two equal-shape numpy arrays.

        This is the merge operation Theorem 6.1 licenses for sharded
        contraction: a contraction is a ⊕-reduction, so partial results
        over an index partition combine with pointwise ⊕.
        """
        if self.np_add is not None:
            return self.np_add(x, y)
        import numpy as np

        flat_x = np.asarray(x).ravel()
        flat_y = np.asarray(y).ravel()
        out = np.array(
            [self.add(a, b) for a, b in zip(flat_x.tolist(), flat_y.tolist())],
            dtype=np.asarray(x).dtype,
        )
        return out.reshape(np.asarray(x).shape)

    def pow(self, x: Any, n: int) -> Any:
        if n < 0:
            raise ValueError("semiring power must be non-negative")
        acc = self.one
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

    def from_int(self, n: int) -> Any:
        """The canonical image of a natural number (n-fold sum of one)."""
        if n < 0:
            raise ValueError("from_int expects a natural number")
        return self.sum(self.one for _ in range(n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<semiring {self.name}>"
