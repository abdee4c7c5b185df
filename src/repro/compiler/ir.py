"""The target languages **P** and **E** (Figure 11) and ``Op`` (Figure 12).

**E** is a pure expression language: variables, array accesses, literals,
built-in operators, conditionals, and calls to *user-defined operations*
(:class:`Op`), the paper's extension mechanism for embedding external
procedures.  **P** is a small imperative language with sequencing,
while, branch, assignment, and array stores.  Both map directly to C
and to Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ShapeError

# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------
TINT = "int"      # 64-bit integer (indices, positions)
TFLOAT = "float"  # double
TBOOL = "bool"

#: every valid IR scalar type
IR_TYPES = (TINT, TFLOAT, TBOOL)

#: the element type of a 32-bit ``crd`` array — a ``Param`` ctype, not
#: an IR type: a load from such an array is a ``TINT`` like any other
TI32 = "int32"

_C_TYPES = {TINT: "int64_t", TFLOAT: "double", TBOOL: "bool"}


def c_type(t: str) -> str:
    """The C rendering of an IR type; unknown types are a typed error
    (a :class:`~repro.errors.ShapeError`), not a bare ``KeyError``."""
    try:
        return _C_TYPES[t]
    except KeyError:
        raise ShapeError(
            f"unknown IR type {t!r}; valid types: {', '.join(IR_TYPES)}"
        ) from None


# ----------------------------------------------------------------------
# user-defined operations (Figure 12)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """A user-defined operation: name, type, functional spec, and code.

    ``spec`` is the Python-level functional specification (used by the
    interpreter and the Python backend); ``c_expr`` renders a C
    expression from argument strings; ``c_header`` optionally supplies
    a C definition emitted once per kernel (e.g. a helper function).
    Both may call ``<math.h>``, ``<stdlib.h>`` and ``<string.h>``, which
    a kernel using an op includes; any other header ``c_header``
    includes itself.
    Like the paper's ``Op.add``, built-in arithmetic is unprivileged —
    it is expressed with the same mechanism users extend.
    """

    name: str
    arg_types: Tuple[str, ...]
    ret_type: str
    spec: Callable[..., Any]
    c_expr: Callable[..., str]
    c_header: str = ""

    def __post_init__(self) -> None:
        for t in self.arg_types:
            if t not in IR_TYPES:
                raise ShapeError(
                    f"op {self.name!r}: argument type {t!r} is not an IR type "
                    f"(valid: {', '.join(IR_TYPES)})"
                )
        if self.ret_type not in IR_TYPES:
            raise ShapeError(
                f"op {self.name!r}: return type {self.ret_type!r} is not an "
                f"IR type (valid: {', '.join(IR_TYPES)})"
            )

    @property
    def arity(self) -> int:
        return len(self.arg_types)


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class E:
    """Base class for expressions.  Immutable, side-effect free.

    ``repr(e)`` is the node's *structural key* (deterministic and
    total); because nodes are immutable it is rendered once and kept on
    the node, so keying every subexpression of a tree is linear in its
    size instead of quadratic."""

    __slots__ = ("type", "_key")

    def __init__(self, type_: str) -> None:
        self.type = type_
        self._key: Optional[str] = None

    def __repr__(self) -> str:
        key = self._key
        if key is None:
            key = self._key = self._render()
        return key

    def _render(self) -> str:
        raise NotImplementedError


class EVar(E):
    """A variable.  ``binding`` marks the *declaration* of a binding
    temporary (set only by :meth:`NameGen.binding`, on the instance in
    ``NameGen.allocated``); the verifier reads it from the declared
    locals, uses of the variable need not carry it."""

    __slots__ = ("name", "binding")

    def __init__(self, name: str, type_: str = TINT) -> None:
        super().__init__(type_)
        self.name = name
        self.binding = False

    def _render(self) -> str:
        return self.name


class ELit(E):
    __slots__ = ("value",)

    def __init__(self, value: Any, type_: str) -> None:
        super().__init__(type_)
        self.value = value

    def _render(self) -> str:
        return repr(self.value)


class EAccess(E):
    """Array access ``arr[idx]``."""

    __slots__ = ("array", "index")

    def __init__(self, array: str, index: E, type_: str) -> None:
        super().__init__(type_)
        self.array = array
        self.index = index

    def _render(self) -> str:
        return f"{self.array}[{self.index!r}]"


_BINOPS = {
    "+", "-", "*", "/", "%",
    "<", "<=", ">", ">=", "==", "!=",
    "&&", "||", "min", "max",
}


class EBinop(E):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: E, right: E, type_: str) -> None:
        if op not in _BINOPS:
            raise ValueError(f"unknown binary operator {op!r}")
        super().__init__(type_)
        self.op = op
        self.left = left
        self.right = right

    def _render(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class EUnop(E):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: E, type_: str) -> None:
        if op not in ("!", "-"):
            raise ValueError(f"unknown unary operator {op!r}")
        super().__init__(type_)
        self.op = op
        self.operand = operand

    def _render(self) -> str:
        return f"{self.op}({self.operand!r})"


class ECond(E):
    """Conditional expression ``c ? t : f``."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: E, then: E, els: E) -> None:
        super().__init__(then.type)
        self.cond = cond
        self.then = then
        self.els = els

    def _render(self) -> str:
        return f"({self.cond!r} ? {self.then!r} : {self.els!r})"


class ECall(E):
    """A fully applied call to a user-defined operation."""

    __slots__ = ("op", "args")

    def __init__(self, op: Op, args: Sequence[E]) -> None:
        if len(args) != op.arity:
            raise ValueError(f"{op.name} expects {op.arity} args, got {len(args)}")
        super().__init__(op.ret_type)
        self.op = op
        self.args = tuple(args)

    def _render(self) -> str:
        return f"{self.op.name}({', '.join(map(repr, self.args))})"


# convenience constructors ------------------------------------------------
def ilit(n: int) -> ELit:
    return ELit(int(n), TINT)


def blit(b: bool) -> ELit:
    return ELit(bool(b), TBOOL)


def eand(*xs: E) -> E:
    xs = [x for x in xs if not (isinstance(x, ELit) and x.value is True)]
    if not xs:
        return blit(True)
    out = xs[0]
    for x in xs[1:]:
        out = EBinop("&&", out, x, TBOOL)
    return out


def eor(*xs: E) -> E:
    xs = [x for x in xs if not (isinstance(x, ELit) and x.value is False)]
    if not xs:
        return blit(False)
    out = xs[0]
    for x in xs[1:]:
        out = EBinop("||", out, x, TBOOL)
    return out


def emax(a: E, b: E) -> E:
    return EBinop("max", a, b, a.type)


def emin(a: E, b: E) -> E:
    return EBinop("min", a, b, a.type)


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class P:
    """Base class for statements."""

    __slots__ = ()


class PSkip(P):
    """No-op (unrelated to stream skip)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "skip"


class PSeq(P):
    __slots__ = ("items",)

    def __init__(self, *items: P) -> None:
        flat = []
        for item in items:
            if isinstance(item, PSeq):
                flat.extend(item.items)
            elif not isinstance(item, PSkip):
                flat.append(item)
        self.items = tuple(flat)

    def __repr__(self) -> str:
        return "; ".join(map(repr, self.items)) or "skip"


class PWhile(P):
    __slots__ = ("cond", "body")

    def __init__(self, cond: E, body: P) -> None:
        self.cond = cond
        self.body = body

    def __repr__(self) -> str:
        return f"while ({self.cond!r}) {{ {self.body!r} }}"


class PIf(P):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: E, then: P, els: Optional[P] = None) -> None:
        self.cond = cond
        self.then = then
        self.els = els

    def __repr__(self) -> str:
        tail = f" else {{ {self.els!r} }}" if self.els is not None else ""
        return f"if ({self.cond!r}) {{ {self.then!r} }}{tail}"


class PAssign(P):
    """``store_var``: assignment to a local variable."""

    __slots__ = ("var", "expr")

    def __init__(self, var: EVar, expr: E) -> None:
        self.var = var
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.var!r} = {self.expr!r}"


class PStore(P):
    """``store_mem``: assignment to an array element."""

    __slots__ = ("array", "index", "expr")

    def __init__(self, array: str, index: E, expr: E) -> None:
        self.array = array
        self.index = index
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.array}[{self.index!r}] = {self.expr!r}"


class PComment(P):
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"/* {self.text} */"


class PSort(P):
    """Sort the first ``count`` elements of an int64 array in place,
    ascending.  The array has room for ``2 * count`` elements: the
    statement may clobber ``[count, 2 * count)``, its scratch space.
    Precondition: the elements are non-negative — workspace
    destinations, the one emitter, sort the coordinates a slice touched
    (the compression step of a TACO-style workspace) in a list of twice
    the level's dimension."""

    __slots__ = ("array", "count")

    def __init__(self, array: str, count: E) -> None:
        self.array = array
        self.count = count

    def __repr__(self) -> str:
        return f"sort({self.array}, {self.count!r})"


#: Section 7.3's two implementations of ``skip``
SEARCH_STRATEGIES = ("linear", "binary")


class PSearch(P):
    """The scanning ``skip`` of a compressed level, a function of the
    stream interface (Section 5): if ``var < hi`` and
    ``array[var] < target``, set ``var`` to the least ``q`` in
    ``(var, hi]`` with ``q == hi`` or ``array[q] >= target``.

    An assignment to ``var`` reading ``var``, ``array``, ``hi`` and
    ``target``; the last two never name ``var``.  Precondition:
    ``array`` is strictly increasing on ``[var, hi)`` — the invariant of
    level storage, which ``Tensor.from_coo`` establishes and in-order
    output assembly keeps.  Under it the result does not depend on
    ``strategy``, which only tells a backend whether to scan
    (``"linear"``) or to gallop and bisect (``"binary"``)."""

    __slots__ = ("var", "array", "hi", "target", "strategy")

    def __init__(self, var: EVar, array: str, hi: E, target: E, strategy: str) -> None:
        if strategy not in SEARCH_STRATEGIES:
            raise ValueError(f"unknown search strategy {strategy!r}")
        self.var = var
        self.array = array
        self.hi = hi
        self.target = target
        self.strategy = strategy

    def __repr__(self) -> str:
        return (f"{self.var!r} = search_{self.strategy}({self.array}, "
                f"{self.var!r}, {self.hi!r}, {self.target!r})")


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
def fold(e: E) -> E:
    """Structurally simplify an expression: fold integer-literal
    arithmetic and algebraic identities (0+x, 0*x, 1*x, x-0).  Used by
    the code generators so the emitted source is readable; the C
    compiler would fold these anyway."""
    if isinstance(e, EBinop):
        left = fold(e.left)
        right = fold(e.right)
        lint = left.value if isinstance(left, ELit) and left.type == TINT else None
        rint = right.value if isinstance(right, ELit) and right.type == TINT else None
        if lint is not None and rint is not None:
            table = {
                "+": lambda: lint + rint,
                "-": lambda: lint - rint,
                "*": lambda: lint * rint,
                "min": lambda: min(lint, rint),
                "max": lambda: max(lint, rint),
            }
            if e.op in table:
                return ELit(table[e.op](), TINT)
            cmps = {"<": lint < rint, "<=": lint <= rint, ">": lint > rint,
                    ">=": lint >= rint, "==": lint == rint, "!=": lint != rint}
            if e.op in cmps:
                return ELit(cmps[e.op], TBOOL)
        if e.op == "+":
            if lint == 0:
                return right
            if rint == 0:
                return left
        if e.op == "-" and rint == 0:
            return left
        if e.op == "*":
            if lint == 0 or rint == 0:
                return ELit(0, TINT)
            if lint == 1:
                return right
            if rint == 1:
                return left
        if e.op == "&&":
            if isinstance(left, ELit) and left.type == TBOOL:
                return right if left.value else ELit(False, TBOOL)
            if isinstance(right, ELit) and right.type == TBOOL and right.value:
                return left
        if e.op == "||":
            if isinstance(left, ELit) and left.type == TBOOL:
                return ELit(True, TBOOL) if left.value else right
            if isinstance(right, ELit) and right.type == TBOOL and not right.value:
                return left
        return EBinop(e.op, left, right, e.type)
    if isinstance(e, EUnop):
        operand = fold(e.operand)
        if e.op == "!" and isinstance(operand, ELit) and operand.type == TBOOL:
            return ELit(not operand.value, TBOOL)
        return EUnop(e.op, operand, e.type)
    if isinstance(e, ECond):
        cond = fold(e.cond)
        if isinstance(cond, ELit) and cond.type == TBOOL:
            return fold(e.then) if cond.value else fold(e.els)
        return ECond(cond, fold(e.then), fold(e.els))
    if isinstance(e, EAccess):
        return EAccess(e.array, fold(e.index), e.type)
    if isinstance(e, ECall):
        return ECall(e.op, [fold(a) for a in e.args])
    return e


# ----------------------------------------------------------------------
# fresh-name generation
# ----------------------------------------------------------------------
class NameGen:
    """Deterministic fresh-name source (the paper's ``Name`` parameter).

    Every generated temporary carries the reserved prefix
    :data:`RESERVED_PREFIX` (``_t`` by default), so compiler-introduced
    names live in a namespace user/source variables can never occupy —
    :class:`~repro.compiler.build.KernelBuilder` rejects user variable
    names starting with ``_``.  This closes a latent CSE/LICM hazard:
    a fresh ``cse0``/``inv0`` temporary could previously collide with
    (and silently shadow) a like-named kernel parameter.
    """

    #: prefix reserved for compiler-generated temporaries; user-facing
    #: identifiers (kernel names, variable names, derived parameter
    #: names) must never start with ``_``
    RESERVED_PREFIX = "_t"

    def __init__(self, prefix: Optional[str] = None) -> None:
        self._prefix = self.RESERVED_PREFIX if prefix is None else prefix
        self._counts: Dict[str, int] = {}
        #: every variable handed out, for declaration at kernel entry
        self.allocated: list = []

    def fresh(self, hint: str, type_: str = TINT) -> EVar:
        n = self._counts.get(hint, 0)
        self._counts[hint] = n + 1
        var = EVar(f"{self._prefix}{hint}{n}", type_)
        self.allocated.append(var)
        return var

    def binding(self, hint: str, type_: str = TINT) -> EVar:
        """A fresh *binding temporary*: a variable a stream combinator
        assigns once per loop iteration, in the level's ``bind`` step,
        and that the rest of the iteration then names instead of
        re-deriving (see :class:`~repro.compiler.sstream.SStream`)."""
        var = self.fresh(hint, type_)
        var.binding = True
        return var
