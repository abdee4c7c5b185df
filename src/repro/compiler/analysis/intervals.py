"""Interval analysis for array subscripts, and the capacity lint.

The generated kernels bound every append into a sparse output by a
capacity guard (``counter < cap`` / ``counter <= cap`` — see
:mod:`repro.compiler.dest`), which is what makes ``run(auto_grow=True)``
safe: an overflowing run clamps its writes and only the size counters
run past the end.  :func:`lint_bounds` checks that property *statically*
on the optimized IR:

* an :class:`IntervalAnalysis` (an instance of the generic
  :class:`~repro.compiler.analysis.dataflow.ForwardAnalysis` engine,
  with widening) proves subscripts non-negative — counters start at 0
  and only increment;
* a symbolic walk collects the *dominating guard facts* at each store
  (conjuncts of enclosing ``if``/``while`` conditions, killed when a
  mentioned variable is reassigned, with ``v < B`` weakening to
  ``v <= B`` across the increment ``v = v + 1``) and a small symbolic
  environment that sees through optimizer temporaries
  (``_tcse0 = min(on0, out_cap - 1)``), then discharges the upper bound
  against each array's :class:`ArrayContract`.

Stores that cannot be proven in bounds come back as ``proven=False``
:class:`BoundsFinding`\\ s — the static "needs guard" signal consumed
by :meth:`Kernel.run(auto_grow=True) <repro.compiler.kernel.Kernel.run>`
and printed by ``python -m repro.compiler.analysis``.

Capacity parameters are assumed ``>= 1`` (the kernel wrapper never
allocates an empty output buffer); the entry state gives them the
interval ``[1, +inf)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.compiler.analysis.dataflow import (
    ForwardAnalysis,
    free_vars,
    is_increment,
    run_forward,
    stmt_effects,
)
from repro.compiler.ir import (
    E,
    EAccess,
    EBinop,
    ECall,
    ECond,
    ELit,
    EUnop,
    EVar,
    P,
    PAssign,
    PIf,
    PSearch,
    PSeq,
    PStore,
    PWhile,
    TBOOL,
    TINT,
    ilit,
)

_NEG = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


# ----------------------------------------------------------------------
# the interval domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) integer interval; ``None`` = ±infinity."""

    lo: Optional[int]
    hi: Optional[int]

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def join(self, other: "Interval") -> "Interval":
        """The hull; when one operand contains the other it is returned
        itself, so a join that changes nothing allocates nothing."""
        if self is other or self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        lo = other.lo if self.lo is None else (
            self.lo if other.lo is None else max(self.lo, other.lo)
        )
        hi = other.hi if self.hi is None else (
            self.hi if other.hi is None else min(self.hi, other.hi)
        )
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard widening: a bound that moved outward goes to ∞."""
        lo = self.lo if (
            self.lo is not None and newer.lo is not None and newer.lo >= self.lo
        ) else None
        hi = self.hi if (
            self.hi is not None and newer.hi is not None and newer.hi <= self.hi
        ) else None
        return Interval(lo, hi)

    # -------------- arithmetic --------------
    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        return Interval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def mul(self, other: "Interval") -> "Interval":
        def f(b: Optional[int], sign: int) -> float:
            return sign * math.inf if b is None else float(b)

        prods = []
        for a in (f(self.lo, -1), f(self.hi, +1)):
            for b in (f(other.lo, -1), f(other.hi, +1)):
                prods.append(0.0 if a == 0 or b == 0 else a * b)
        lo, hi = min(prods), max(prods)
        return Interval(
            None if lo == -math.inf else int(lo),
            None if hi == math.inf else int(hi),
        )

    def min_(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def max_(self, other: "Interval") -> "Interval":
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)


TOP = Interval(None, None)
BOOL01 = Interval(0, 1)

IntervalState = Dict[str, Interval]


def eval_interval(e: E, state: IntervalState) -> Interval:
    """The interval of ``e`` in ``state`` (absent variables are ⊤)."""
    if isinstance(e, ELit):
        if e.type == TBOOL:
            return Interval(int(bool(e.value)), int(bool(e.value)))
        if isinstance(e.value, (int, float)) and not isinstance(e.value, bool):
            v = int(e.value) if float(e.value).is_integer() else None
            if v is not None:
                return Interval(v, v)
        return TOP
    if isinstance(e, EVar):
        return state.get(e.name, TOP)
    if isinstance(e, EAccess):
        return TOP
    if isinstance(e, EUnop):
        if e.op == "-":
            return eval_interval(e.operand, state).neg()
        if e.op == "!":
            return BOOL01
        return TOP
    if isinstance(e, ECond):
        return eval_interval(e.then, state).join(eval_interval(e.els, state))
    if isinstance(e, EBinop):
        if e.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return BOOL01
        l = eval_interval(e.left, state)
        r = eval_interval(e.right, state)
        if e.op == "+":
            return l.add(r)
        if e.op == "-":
            return l.sub(r)
        if e.op == "*":
            return l.mul(r)
        if e.op == "min":
            return l.min_(r)
        if e.op == "max":
            return l.max_(r)
        if e.op == "%":
            if (
                l.lo is not None and l.lo >= 0
                and r.lo is not None and r.lo >= 1
            ):
                return Interval(0, None if r.hi is None else r.hi - 1)
            return TOP
        if e.op == "/":
            if (
                l.lo is not None and l.lo >= 0
                and r.lo is not None and r.lo >= 1
            ):
                return Interval(0, l.hi)
            return TOP
        return TOP
    if isinstance(e, ECall):
        return TOP
    return TOP


def _negate(cond: E) -> Optional[E]:
    if isinstance(cond, EBinop) and cond.op in _NEG:
        return EBinop(_NEG[cond.op], cond.left, cond.right, TBOOL)
    if isinstance(cond, EUnop) and cond.op == "!":
        return cond.operand
    return None


class IntervalAnalysis(ForwardAnalysis[IntervalState]):
    """Forward interval analysis with branch refinement and widening.

    After :func:`~repro.compiler.analysis.dataflow.run_forward`,
    ``at`` maps ``id(stmt)`` of every leaf statement to the interval
    environment holding on entry to it.
    """

    def __init__(self) -> None:
        self.at: Dict[int, IntervalState] = {}

    @staticmethod
    def entry_state(
        params: Iterable[str] = (),
        decls: Iterable[str] = (),
        positive: Iterable[str] = (),
    ) -> IntervalState:
        """Params are unknown (⊤) except ``positive`` ones (``[1, +inf)``
        — capacities); declared locals start at the zero initializer."""
        state: IntervalState = {name: TOP for name in params}
        for name in positive:
            state[name] = Interval(1, None)
        for name in decls:
            state.setdefault(name, Interval(0, 0))
        return state

    def transfer(self, stmt: P, state: IntervalState) -> IntervalState:
        if isinstance(stmt, PAssign):
            iv = eval_interval(stmt.expr, state)
        elif isinstance(stmt, PSearch):
            # var' ∈ [var, max(var, hi)]: no loop, so no widening
            cur = eval_interval(stmt.var, state)
            iv = Interval(cur.lo, cur.max_(eval_interval(stmt.hi, state)).hi)
        else:
            return state
        name = stmt.var.name
        return state if state.get(name) == iv else {**state, name: iv}

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        """Pointwise hull over the common variables — ``a`` itself when
        it already contains ``b``, as the head of a loop does at (and,
        for most variables, well before) the fixpoint."""
        if a is b or (a.keys() <= b.keys()
                      and all(av.join(b[k]) is av for k, av in a.items())):
            return a
        return {k: av.join(b[k]) for k, av in a.items() if k in b}

    def widen(self, older: IntervalState, newer: IntervalState) -> IntervalState:
        return {
            k: older[k].widen(newer[k]) if k in older else newer[k]
            for k in newer
        }

    def refine(self, cond: E, branch: bool, state: IntervalState) -> IntervalState:
        if not branch:
            neg = _negate(cond)
            return state if neg is None else self.refine(neg, True, state)
        if isinstance(cond, EBinop) and cond.op == "&&":
            return self.refine(
                cond.right, True, self.refine(cond.left, True, state)
            )
        if isinstance(cond, EUnop) and cond.op == "!":
            return self.refine(cond.operand, False, state)
        if not (isinstance(cond, EBinop) and cond.op in ("<", "<=", ">", ">=", "==")):
            return state
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
        return self._clamp(
            flipped[cond.op], cond.right, cond.left,
            self._clamp(cond.op, cond.left, cond.right, state),
        )

    @staticmethod
    def _clamp(op: str, left: E, right: E, state: IntervalState) -> IntervalState:
        """``state`` with ``left op right`` assumed: itself when the
        comparison tells nothing new about ``left``."""
        if not isinstance(left, EVar):
            return state
        cur = state.get(left.name, TOP)
        r = eval_interval(right, state)
        if op == "<":
            bound = Interval(None, None if r.hi is None else r.hi - 1)
        elif op == "<=":
            bound = Interval(None, r.hi)
        elif op == ">":
            bound = Interval(None if r.lo is None else r.lo + 1, None)
        elif op == ">=":
            bound = Interval(r.lo, None)
        else:  # ==
            bound = r
        new = cur.meet(bound)
        if new.is_empty or new == cur:
            return state
        return {**state, left.name: new}

    def observe(self, stmt: P, state: IntervalState) -> None:
        self.at[id(stmt)] = state  # states are never mutated in place


# ----------------------------------------------------------------------
# the capacity lint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayContract:
    """Capacity contract for one output array: indices must stay within
    ``[0, cap - 1 + slack]`` (``slack=1`` for pos arrays, which are
    allocated with one extra slot)."""

    array: str
    cap: E
    slack: int = 0

    def describe(self) -> str:
        upper = repr(self.cap) if self.slack == 0 else f"{self.cap!r} + {self.slack}"
        return f"{self.array}[0 .. {upper} - 1]"


@dataclass(frozen=True)
class BoundsFinding:
    """The lint's verdict on one store into a contracted array."""

    array: str
    index: str      # repr of the subscript expression
    stmt: str       # repr of the store
    proven: bool
    reason: str     # how it was proven, or which bound failed

    def __str__(self) -> str:
        status = "proven " if self.proven else "NEEDS GUARD"
        return f"{status:11s} {self.array}[{self.index}]  ({self.reason})"


def _conjuncts(cond: E) -> List[E]:
    if isinstance(cond, EBinop) and cond.op == "&&":
        return _conjuncts(cond.left) + _conjuncts(cond.right)
    return [cond]


def _resolve(e: E, symenv: Dict[str, E], depth: int = 8) -> E:
    """Substitute straight-line temporary definitions into ``e`` —
    this is what lets the lint see ``min(on0, out_cap - 1)`` behind a
    CSE or LICM temporary."""
    if depth <= 0:
        return e
    if isinstance(e, EVar):
        sub = symenv.get(e.name)
        return e if sub is None else _resolve(sub, symenv, depth - 1)
    if isinstance(e, EBinop):
        return EBinop(
            e.op,
            _resolve(e.left, symenv, depth - 1),
            _resolve(e.right, symenv, depth - 1),
            e.type,
        )
    if isinstance(e, EUnop):
        return EUnop(e.op, _resolve(e.operand, symenv, depth - 1), e.type)
    return e


class _BoundsLinter:
    def __init__(
        self,
        contracts: Sequence[ArrayContract],
        intervals: IntervalAnalysis,
    ) -> None:
        self.contracts: Dict[str, ArrayContract] = {c.array: c for c in contracts}
        self.intervals = intervals
        self.findings: List[BoundsFinding] = []

    # -------------- flow state --------------
    def walk(self, p: P, facts: List[E], symenv: Dict[str, E]) -> None:
        if isinstance(p, PSeq):
            for item in p.items:
                self.walk(item, facts, symenv)
            return
        if isinstance(p, PIf):
            self.walk(p.then, facts + _conjuncts(p.cond), dict(symenv))
            if p.els is not None:
                neg = _negate(p.cond)
                self.walk(
                    p.els,
                    facts + ([neg] if neg is not None else []),
                    dict(symenv),
                )
            self._kill_assigned(p, facts, symenv)
            return
        if isinstance(p, PWhile):
            # conservative loop entry: facts/bindings about anything the
            # body reassigns do not survive the back edge
            self._kill_assigned(p.body, facts, symenv)
            self.walk(p.body, facts + _conjuncts(p.cond), dict(symenv))
            return
        if isinstance(p, (PAssign, PSearch)):
            v = p.var.name
            if isinstance(p, PAssign) and is_increment(p.expr, v):
                # v = v + 1 weakens v < B to v <= B; everything else
                # about v dies
                for k, f in enumerate(facts):
                    if v not in free_vars(f):
                        continue
                    if (
                        isinstance(f, EBinop)
                        and f.op == "<"
                        and isinstance(f.left, EVar)
                        and f.left.name == v
                        and v not in free_vars(f.right)
                    ):
                        facts[k] = EBinop("<=", f.left, f.right, TBOOL)
                    else:
                        facts[k] = ELit(True, TBOOL)  # dropped
            else:
                facts[:] = [f for f in facts if v not in free_vars(f)]
            for name in [
                n for n, e in symenv.items()
                if n == v or v in free_vars(e)
            ]:
                del symenv[name]
            if isinstance(p, PAssign) and v not in free_vars(p.expr):
                symenv[v] = p.expr
            return
        if isinstance(p, PStore):
            contract = self.contracts.get(p.array)
            if contract is not None:
                self._check(p, contract, facts, symenv)
            return
        # PSort, PSkip, PComment: nothing to do

    def _kill_assigned(self, p: P, facts: List[E], symenv: Dict[str, E]) -> None:
        assigned, _ = stmt_effects(p)
        facts[:] = [f for f in facts if not (free_vars(f) & assigned)]
        for name in [
            n for n, e in symenv.items()
            if n in assigned or (free_vars(e) & assigned)
        ]:
            del symenv[name]

    # -------------- the proof obligations --------------
    def _check(
        self,
        store: PStore,
        contract: ArrayContract,
        facts: List[E],
        symenv: Dict[str, E],
    ) -> None:
        index = _resolve(store.index, symenv)
        reasons: List[str] = []
        lower = self._prove_lower(store, index, reasons)
        upper = self._prove_upper(index, contract, facts, symenv, reasons)
        self.findings.append(
            BoundsFinding(
                array=contract.array,
                index=repr(store.index),
                stmt=repr(store),
                proven=lower and upper,
                reason="; ".join(reasons),
            )
        )

    def _prove_lower(self, store: PStore, index: E, reasons: List[str]) -> bool:
        state = self.intervals.at.get(id(store), {})
        iv = eval_interval(index, state)
        if iv.lo is not None and iv.lo >= 0:
            reasons.append(f"index interval {iv} >= 0")
            return True
        reasons.append(f"lower bound unproven (index interval {iv})")
        return False

    def _prove_upper(
        self,
        index: E,
        contract: ArrayContract,
        facts: List[E],
        symenv: Dict[str, E],
        reasons: List[str],
    ) -> bool:
        cap_key = repr(_resolve(contract.cap, symenv))
        cap_minus_1 = repr(
            _resolve(EBinop("-", contract.cap, ilit(1), TINT), symenv)
        )
        # literal index: 0 <= i <= slack is within [0, cap-1+slack]
        # because capacities are >= 1
        if isinstance(index, ELit) and isinstance(index.value, int):
            if 0 <= index.value <= contract.slack:
                reasons.append(
                    f"constant index {index.value} <= slack {contract.slack}"
                )
                return True
            reasons.append(
                f"constant index {index.value} > slack {contract.slack}"
            )
            return False
        # structural clamp: min(_, cap - 1)
        if isinstance(index, EBinop) and index.op == "min":
            for side in (index.left, index.right):
                if repr(side) == cap_minus_1:
                    reasons.append(
                        f"clamped by min(..., {contract.cap!r} - 1)"
                    )
                    return True
        # a dominating guard: index < cap (or index <= cap with slack)
        index_key = repr(index)
        for f in facts:
            if not (isinstance(f, EBinop) and f.op in ("<", "<=")):
                continue
            if repr(_resolve(f.left, symenv)) != index_key:
                continue
            bound_key = repr(_resolve(f.right, symenv))
            if (
                (f.op == "<" and bound_key == cap_key)
                or (f.op == "<=" and bound_key == cap_key
                    and contract.slack >= 1)
                or (f.op == "<=" and bound_key == cap_minus_1)
            ):
                reasons.append(f"dominating guard {f!r}")
                return True
        reasons.append(f"no guard proves index within {contract.describe()}")
        return False


def lint_bounds(
    body: P,
    contracts: Sequence[ArrayContract],
    *,
    params: Iterable[str] = (),
    decls: Iterable[str] = (),
) -> List[BoundsFinding]:
    """Check every store into a contracted array; returns one
    :class:`BoundsFinding` per store (``proven=False`` means the store
    relies on runtime behavior the lint cannot see — the "needs guard"
    signal)."""
    if not contracts:
        return []
    positive: Set[str] = set()
    for c in contracts:
        positive |= free_vars(c.cap)
    ia = IntervalAnalysis()
    entry = IntervalAnalysis.entry_state(
        params=params, decls=decls, positive=positive
    )
    run_forward(body, ia, entry)
    linter = _BoundsLinter(contracts, ia)
    linter.walk(body, [], {})
    return linter.findings


__all__ = [
    "Interval",
    "IntervalAnalysis",
    "IntervalState",
    "TOP",
    "eval_interval",
    "ArrayContract",
    "BoundsFinding",
    "lint_bounds",
]
