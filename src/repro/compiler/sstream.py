"""Syntactic indexed streams (Section 7.2, Figure 13).

A :class:`SStream` is an indexed stream whose components are program
fragments: ``index``/``ready``/``valid`` are **E** expressions over the
stream's state variables, ``skip0`` renders the code of ``skip(q, (i, 0))``
for a given target index expression, ``advance1`` is the step past a
ready state, and ``init`` (re)initializes the state.
``value`` is either a nested :class:`SStream` or a scalar **E**.

A level may also carry a *binding step* (``bind``): statements run once
at the top of every loop iteration that define temporaries the rest of
the iteration names instead of re-deriving.  The composite combinators
use it so that an operand's ``valid``/``index`` text appears a constant
number of times per level, whatever the nesting depth — the emitted
code is linear in the size of the contraction expression.

Level constructors (:func:`sparse_level`, :func:`dense_level`,
:func:`function_level`) encode the primitive streams of Example 5.2;
the combinators (:func:`smul`, :func:`sadd`, :func:`scontract`,
:func:`sreplicate`) mirror the runtime combinators of
:mod:`repro.streams.combinators` — compare :func:`smul` with
Definition 5.4 and the paper's Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple, Union

from repro.compiler.ir import (
    E,
    EAccess,
    EBinop,
    ECond,
    ELit,
    EUnop,
    EVar,
    NameGen,
    P,
    PAssign,
    PIf,
    PSearch,
    PSeq,
    PSkip,
    SEARCH_STRATEGIES,
    TBOOL,
    TINT,
    blit,
    eand,
    emax,
    eor,
    ilit,
)
from repro.compiler.scalars import ScalarOps
from repro.streams.base import STAR

Value = Union["SStream", E]
SkipFn = Callable[[Optional[E]], P]


@dataclass
class SStream:
    """A syntactic indexed stream (Figure 13).

    ``attr`` is the level's attribute (or :data:`STAR` for contracted
    levels, whose ``index`` is ``None`` and whose ``skip0`` ignores its
    argument).  ``shape`` is the real-attribute shape of the whole
    nested stream.

    Levels that support random access — dense and implicit levels, whose
    value is a pure function of the index — additionally carry a
    ``locate`` function (TACO's "locate capability"): multiplication can
    then index into them directly rather than co-iterate, collapsing
    e.g. SpMV's inner loop to ``y[i] += A_vals[p] * x[A_crd[p]]``.
    ``dim`` is the level's extent (None = unbounded), used both to
    bound located reads and to decide which operand can drive a loop.

    **Evaluation protocol.**  ``valid`` and ``init`` read only state
    variables (of this level and of enclosing ones).  Every other
    component — ``ready``, ``index``, the guards inside ``value``,
    ``skip0``/``advance1`` — is evaluated only while ``valid``
    holds and only after ``bind`` has run in the same iteration, so it
    may name the temporaries ``bind`` assigns.  A temporary bound here
    stays meaningful for the whole iteration, inner loops included: the
    level's state moves only in its skip, the last thing an iteration
    does.  Whoever consumes a stream (``compile_stream`` or an
    enclosing combinator) runs its ``bind`` exactly once per iteration,
    under its ``valid``.
    """

    attr: object
    shape: Tuple[str, ...]
    init: P
    valid: E
    ready: E
    index: Optional[E]
    value: Value
    skip0: SkipFn
    #: δ at a ready state: ``skip(q, (index(q), 1))`` there, spelled
    #: without a scan (``q += 1`` for a strictly monotone source).  Every
    #: combinator derives its own from its operands' — a product steps
    #: both, a sum steps the operands at the merge point, Σ and guards
    #: pass it through — so a primitive's increment reaches the loop
    #: whatever is built on top of it.  A ready state is the only place
    #: the strict skip is ever taken, so no general ``skip1`` exists.
    advance1: P
    locate: Optional[Callable[[E], Value]] = None
    dim: Optional[E] = None
    #: the per-iteration binding step (see the class docstring)
    bind: P = field(default_factory=PSkip)

    @property
    def locatable(self) -> bool:
        return self.locate is not None

    def map_value(self, fn: Callable[[Value], Value], shape: Optional[Tuple[str, ...]] = None) -> "SStream":
        """Transform the value while *preserving* random access: the
        located subtree is the same transformation applied at the
        located index."""
        locate = None
        if self.locate is not None:
            old_locate = self.locate
            locate = lambda i: fn(old_locate(i))
        return replace(
            self,
            value=fn(self.value),
            shape=self.shape if shape is None else shape,
            locate=locate,
        )


def is_sstream(x: object) -> bool:
    return isinstance(x, SStream)


# ----------------------------------------------------------------------
# primitive levels (Example 5.2, syntactically)
# ----------------------------------------------------------------------
def sparse_level(
    ng: NameGen,
    attr: str,
    crd_array: str,
    lo: E,
    hi: E,
    value_fn: Callable[[EVar], Value],
    shape: Tuple[str, ...],
    search: str = "linear",
) -> SStream:
    """A compressed level reading sorted coordinates from ``crd_array``
    between positions ``lo`` and ``hi``.

    ``search`` selects how a backend may implement the level's skip,
    one :class:`~repro.compiler.ir.PSearch` statement either way:
    ``"linear"`` scans forward one element at a time (TACO-style merge
    loops), ``"binary"`` gallops then bisects — the variant the paper
    credits for the ``smul`` speedup (Section 8.1).
    """
    if search not in SEARCH_STRATEGIES:
        raise ValueError(f"unknown search strategy {search!r}")
    q = ng.fresh(f"{attr}_q")
    valid = EBinop("<", q, hi, TBOOL)
    index = EAccess(crd_array, q, TINT)

    return SStream(
        attr=attr,
        shape=shape,
        init=PAssign(q, lo),
        valid=valid,
        ready=valid,
        index=index,
        value=value_fn(q),
        skip0=lambda i: PSearch(q, crd_array, hi, i, search),
        advance1=PAssign(q, EBinop("+", q, ilit(1), TINT)),
    )


def dense_level(
    ng: NameGen,
    attr: str,
    dim: E,
    value_fn: Callable[[EVar], Value],
    shape: Tuple[str, ...],
) -> SStream:
    """A dense level iterating indices ``0 .. dim-1`` directly: the
    bounded implicit level whose value is the stored slice."""
    return function_level(ng, attr, value_fn, shape, dim=dim)


def function_level(
    ng: NameGen,
    attr: str,
    value_fn: Callable[[EVar], Value],
    shape: Tuple[str, ...],
    dim: Optional[E] = None,
) -> SStream:
    """An implicitly represented level: always ready, value computed
    from the index variable (Section 7.2's "implicit" streams).

    With ``dim=None`` the level is *infinite* (valid is the literal
    true); such levels encode ⇑ and user-defined functions and must be
    multiplied by a finite stream before compilation of an enclosing
    loop."""
    i = ng.fresh(f"{attr}_i")
    valid = blit(True) if dim is None else EBinop("<", i, dim, TBOOL)

    def skip0(j: Optional[E]) -> P:
        assert j is not None
        return PIf(EBinop(">", j, i, TBOOL), PAssign(i, j))

    return SStream(
        attr=attr,
        shape=shape,
        init=PAssign(i, ilit(0)),
        valid=valid,
        ready=valid,
        index=i,
        value=value_fn(i),
        skip0=skip0,
        locate=value_fn,
        dim=dim,
        advance1=PAssign(i, EBinop("+", i, ilit(1), TINT)),
    )


def sreplicate(ng: NameGen, attr: str, value: Value, dim: Optional[E] = None) -> SStream:
    """The expansion operator ⇑_attr as a syntactic stream: it stores
    one value and makes it available at every index (Section 5.1.3)."""
    inner_shape = value.shape if is_sstream(value) else ()
    return function_level(
        ng, attr, lambda _i: value, (attr,) + tuple(inner_shape), dim=dim
    )


# ----------------------------------------------------------------------
# binding helpers
# ----------------------------------------------------------------------
def always_ready(s: SStream) -> bool:
    """Whether ``s`` is ready in every valid state — true of every
    primitive level and of sums of such — so that no ready test (and no
    ``skip0`` arm) is needed around it.  ``ready`` is only consulted
    while ``valid`` holds, so either spelling says so: the ``valid``
    expression itself (the primitive levels) or the literal true."""
    r = s.ready
    return (isinstance(r, ELit) and r.value is True) or repr(r) == repr(s.valid)


def _ready_when_valid(s: SStream) -> E:
    """``s.ready`` for a reader that already knows ``s.valid`` holds —
    every reader, by the evaluation protocol: the literal true for an
    always-ready level, whose ``ready`` may be spelled ``valid``."""
    return blit(True) if always_ready(s) else s.ready


def _is_atomic(e: E) -> bool:
    """A variable, a literal, or one array read at either."""
    if isinstance(e, EAccess):
        e = e.index
    return isinstance(e, (EVar, ELit))


def _named_index(s: SStream, ng: NameGen) -> Tuple[E, P]:
    """``s``'s index as an expression that is cheap to repeat, and the
    statement binding it (to run under ``s.valid``, after ``s.bind``).

    A primitive level's index is atomic and is used as it is; a
    composite one (the max of a product, the merged index of a sum) is
    bound to a temporary, so that nesting composites — and printing
    ``min``/``max``, whose C rendering repeats each operand — does not
    nest their text."""
    assert s.index is not None
    if _is_atomic(s.index):
        return s.index, PSkip()
    tmp = ng.binding(f"{s.attr}_at")
    return tmp, PAssign(tmp, s.index)


# ----------------------------------------------------------------------
# guarding (used by addition)
# ----------------------------------------------------------------------
def guard(cond: EVar, s: Value, ops: ScalarOps) -> Value:
    """A stream equal to ``s`` while ``cond`` holds and empty otherwise.

    ``cond`` is a temporary bound by the *enclosing* level's iteration,
    hence invariant for the guarded stream's lifetime (the IR verifier
    checks exactly this of every binding temporary).  Skips need no
    test of their own: they only ever run while ``valid`` holds."""
    if not is_sstream(s):
        return ECond(cond, s, ops.zero)
    return SStream(
        attr=s.attr,
        shape=s.shape,
        init=PIf(cond, s.init),
        valid=eand(cond, s.valid),
        ready=_ready_when_valid(s),
        index=s.index,
        value=s.value,
        skip0=s.skip0,
        advance1=s.advance1,
        bind=s.bind,
    )


# ----------------------------------------------------------------------
# multiplication (Figure 14 / Definition 5.4)
# ----------------------------------------------------------------------
def smul(a: Value, b: Value, ops: ScalarOps, ng: NameGen, locate: bool = True) -> Value:
    """Product of syntactic streams, with the same dummy-level
    dispatch rules as the runtime :func:`repro.streams.combinators.mul`.

    When one operand supports random access (``locatable``) the product
    iterates the other operand and *locates* into it — TACO's locate
    optimization — instead of emitting a co-iteration merge loop
    (``locate=False`` forces co-iteration, for ablation).
    """
    if not is_sstream(a) and not is_sstream(b):
        return ops.mul(a, b)
    if is_sstream(a) and a.attr is STAR:
        return a.map_value(lambda v: smul(v, b, ops, ng, locate))
    if is_sstream(b) and b.attr is STAR:
        return b.map_value(lambda v: smul(a, v, ops, ng, locate))
    if not is_sstream(a):
        return b.map_value(lambda v: smul(a, v, ops, ng, locate))
    if not is_sstream(b):
        return a.map_value(lambda v: smul(v, b, ops, ng, locate))
    if a.attr != b.attr:
        raise ValueError(f"cannot multiply levels {a.attr!r} and {b.attr!r}")

    if locate:
        located = _try_locate(a, b, ops, ng)
        if located is not None:
            return located

    # both operands are valid whenever the product is, so both binding
    # steps run unconditionally
    ia, name_a = _named_index(a, ng)
    ib, name_b = _named_index(b, ng)
    return SStream(
        attr=a.attr,
        shape=a.shape,
        init=PSeq(a.init, b.init),
        valid=eand(a.valid, b.valid),
        # the product's valid already is the conjunction of the operands'
        ready=eand(
            _ready_when_valid(a), _ready_when_valid(b),
            EBinop("==", ia, ib, TBOOL),
        ),
        index=emax(ia, ib),
        value=smul(a.value, b.value, ops, ng, locate),
        skip0=lambda i: PSeq(a.skip0(i), b.skip0(i)),
        # the product is ready only when both operands are ready at the
        # same index, so each steps past its own
        advance1=PSeq(a.advance1, b.advance1),
        bind=PSeq(a.bind, name_a, b.bind, name_b),
    )


def _try_locate(a: SStream, b: SStream, ops: ScalarOps, ng: NameGen) -> Optional[SStream]:
    """Iterate one operand and random-access the other, when possible.

    The iterating operand must be able to *drive* the loop: sparse and
    composite levels always terminate, while a locatable level can only
    drive if it has a dimension bound (an unbounded implicit level is an
    infinite stream).  When both operands are locatable the first one
    drives, so operand order is preserved in the emitted product.
    """

    def can_drive(s: SStream) -> bool:
        return not (s.locatable and s.dim is None)

    if b.locatable and can_drive(a):
        driver, passenger, order = a, b, "ab"
    elif a.locatable and can_drive(b):
        driver, passenger, order = b, a, "ba"
    else:
        return None

    assert passenger.locate is not None
    # the located operand reads at the driver's current index (bound to
    # a temporary first when composite).  No bounds check is needed:
    # all operands of a level share one attribute, and the kernel
    # wrapper validates that every tensor (and the output) agrees on
    # each attribute's dimension, while tensor construction bounds
    # every stored coordinate by its dimension.
    index, name = _named_index(driver, ng)
    inner = passenger.locate(index)
    if order == "ab":
        value = smul(driver.value, inner, ops, ng)
    else:
        value = smul(inner, driver.value, ops, ng)
    return replace(
        driver,
        index=index,
        value=value,
        locate=None,
        bind=PSeq(driver.bind, name),
    )


# ----------------------------------------------------------------------
# addition
# ----------------------------------------------------------------------
def sadd(a: Value, b: Value, ops: ScalarOps, ng: NameGen) -> Value:
    """Sum of syntactic streams (the min-merge of Section 5.1.1)."""
    if not is_sstream(a) and not is_sstream(b):
        return ops.add(a, b)
    a_star = is_sstream(a) and a.attr is STAR
    b_star = is_sstream(b) and b.attr is STAR
    if a_star and not b_star:
        return _sadd_streams(a, singleton_contract(ng, b, ops), ops, ng)
    if b_star and not a_star:
        return _sadd_streams(singleton_contract(ng, a, ops), b, ops, ng)
    if not is_sstream(a) or not is_sstream(b):
        raise ValueError("cannot add a scalar to a non-contracted stream")
    return _sadd_streams(a, b, ops, ng)


def _sadd_streams(a: SStream, b: SStream, ops: ScalarOps, ng: NameGen) -> SStream:
    """The min-merge, mirroring :class:`repro.streams.combinators.AddStream`:
    ready requires every live operand *at the min index* to be ready
    itself (an unready operand at that index may still produce a value
    there, so the sum must wait — δ's skip-to-(i, 0) lets it advance
    internally without loss).

    The binding step evaluates each operand's ``valid`` once (``live``),
    runs the live operands' own binding steps, and decides once which
    operands sit at the merge point (``at``); ``ready``, ``index``, the
    guards pushed into the value, ``skip0`` and ``advance1`` then read
    those temporaries.  An operand's state moves only in its own step,
    which is the last thing to read that operand's temporaries.

    δ at a ready state (``advance1``) steps exactly the operands at the
    merge point, each by its own ``advance1``: the sum is ready only if
    every one of them is, so each is at a ready state of its own; a live
    operand off the merge point has an index > i, where
    ``skip(q, (i, 1))`` of a strictly monotone stream is the identity."""
    if a.attr != b.attr and not (a.attr is STAR and b.attr is STAR):
        raise ValueError(f"cannot add levels {a.attr!r} and {b.attr!r}")
    live_a = ng.binding("live", TBOOL)
    live_b = ng.binding("live", TBOOL)
    if a.attr is STAR:
        # all indices are *, so every live side is at the merge point
        at_a, at_b = live_a, live_b
        index = None
        name_a = name_b = merge = PSkip()
    else:
        ia, name_a = _named_index(a, ng)
        ib, name_b = _named_index(b, ng)
        at_a = ng.binding("at", TBOOL)
        at_b = ng.binding("at", TBOOL)
        merge = PSeq(
            PAssign(at_a, eand(
                live_a, eor(EUnop("!", live_b, TBOOL), EBinop("<=", ia, ib, TBOOL)),
            )),
            PAssign(at_b, eand(
                live_b, eor(EUnop("!", live_a, TBOOL), EBinop("<=", ib, ia, TBOOL)),
            )),
        )
        # one of at_a/at_b holds in every valid state, and whichever
        # does is at the min index
        index = ECond(at_a, ia, ib)

    def under(live: EVar, *stmts: P) -> P:
        body = PSeq(*stmts)
        return PIf(live, body) if body.items else body

    bind = PSeq(
        PAssign(live_a, a.valid),
        PAssign(live_b, b.valid),
        under(live_a, a.bind, name_a),
        under(live_b, b.bind, name_b),
        merge,
    )

    def ready_at(at: EVar, s: SStream) -> E:
        return blit(True) if always_ready(s) else eor(EUnop("!", at, TBOOL), s.ready)

    value = sadd(guard(at_a, a.value, ops), guard(at_b, b.value, ops), ops, ng)

    return SStream(
        attr=a.attr,
        shape=a.shape,
        init=PSeq(a.init, b.init),
        valid=eor(a.valid, b.valid),
        # true when both operands are always ready: then so is the sum
        ready=eand(ready_at(at_a, a), ready_at(at_b, b)),
        index=index,
        value=value,
        skip0=lambda i: PSeq(PIf(live_a, a.skip0(i)), PIf(live_b, b.skip0(i))),
        advance1=PSeq(PIf(at_a, a.advance1), PIf(at_b, b.advance1)),
        bind=bind,
    )


# ----------------------------------------------------------------------
# contraction (Section 5.1.2)
# ----------------------------------------------------------------------
def scontract(s: SStream, ng: NameGen) -> SStream:
    """Σ on the outermost level: forget the index; skip at the current
    inner index (``skip(q, (*, r)) = skip(q, (index(q), r))``)."""
    if s.attr is STAR:
        raise ValueError("cannot contract an already-contracted level")
    tmp = ng.fresh("ci")

    def skip0(_i: Optional[E]) -> P:
        assert s.index is not None
        return PSeq(PAssign(tmp, s.index), s.skip0(tmp))

    return SStream(
        attr=STAR,
        shape=s.shape[1:],
        init=s.init,
        valid=s.valid,
        ready=s.ready,
        index=None,
        value=s.value,
        skip0=skip0,
        advance1=s.advance1,
        bind=s.bind,
    )


def singleton_contract(ng: NameGen, value: Value, ops: ScalarOps) -> SStream:
    """A one-shot contracted stream (dummy level emitting once); aligns
    a non-contracted operand with a contracted one under addition."""
    flag = ng.fresh("once")
    shape = value.shape if is_sstream(value) else ()
    return SStream(
        attr=STAR,
        shape=tuple(shape),
        init=PAssign(flag, ilit(0)),
        valid=EBinop("==", flag, ilit(0), TBOOL),
        ready=blit(True),
        index=None,
        value=value,
        skip0=lambda _i: PSkip(),
        advance1=PAssign(flag, ilit(1)),
    )


# ----------------------------------------------------------------------
# structural maps (Definition 5.8's map^k, syntactically)
# ----------------------------------------------------------------------
def deep_contract(s: Value, attr: str, ng: NameGen) -> Value:
    """Σ_attr applied at the level labeled ``attr``."""
    if not is_sstream(s):
        raise ValueError(f"cannot contract {attr!r} in a scalar")
    if s.attr == attr:
        return scontract(s, ng)
    if attr not in s.shape:
        raise ValueError(f"attribute {attr!r} not in stream shape {s.shape}")
    new_shape = tuple(x for x in s.shape if x != attr)
    return s.map_value(lambda v: deep_contract(v, attr, ng), shape=new_shape)


def deep_expand(
    s: Value,
    attr: str,
    position: Callable[[str], int],
    ng: NameGen,
    dim: Optional[E] = None,
) -> Value:
    """⇑_attr inserted at its position in the global attribute order.

    ``position`` ranks real attributes; dummy levels are descended
    through, as in :func:`repro.lang.stream_semantics.deep_expand`."""
    if not is_sstream(s) or (s.attr is not STAR and position(attr) < position(s.attr)):
        return sreplicate(ng, attr, s, dim=dim)
    if attr in s.shape:
        raise ValueError(f"attribute {attr!r} already in stream shape {s.shape}")
    inserted = list(s.shape)
    at = next(
        (k for k, x in enumerate(inserted) if position(x) > position(attr)),
        len(inserted),
    )
    inserted.insert(at, attr)
    return s.map_value(
        lambda v: deep_expand(v, attr, position, ng, dim=dim),
        shape=tuple(inserted),
    )


def map_leaf(s: Value, fn: Callable[[E], E]) -> Value:
    """Apply an operation to every leaf value (user-defined post-ops)."""
    if not is_sstream(s):
        return fn(s)
    return s.map_value(lambda v: map_leaf(v, fn))
