"""A small dataflow framework over the structured IR **P**.

**P** has no goto, so analyses run directly on the statement tree: a
:class:`ForwardAnalysis` is folded over sequences, joined across
branches, and iterated to a fixpoint around ``while`` loops (with a
``widen`` hook for infinite-height domains); a
:class:`BackwardAnalysis` is the mirror image.  Two classic instances
are provided — :class:`ReachingDefinitions` and
:class:`LiveVariables` — plus :func:`def_use_chains` built on the
former.

The structural helpers at the top (:func:`expr_uses`,
:func:`free_vars`, :func:`arrays_read`, :func:`stmt_exprs`,
:func:`stmt_effects`, :func:`stmt_reads`, :func:`live_transfer`) are
the single shared implementation used by the optimizer passes in
:mod:`repro.compiler.opt`, the vectorizer in
:mod:`repro.compiler.codegen_py`, and the verifier — previously each
site carried its own ad-hoc copy.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Dict,
    FrozenSet,
    Generic,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
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
    PSort,
    PStore,
    PWhile,
)

S = TypeVar("S")


# ----------------------------------------------------------------------
# structural helpers (shared by opt, codegen_py, verifier, intervals)
# ----------------------------------------------------------------------
def expr_key(e: E) -> str:
    """A structural identity key: E reprs are deterministic and total,
    and each node renders its own once (see :class:`~repro.compiler.ir.E`)."""
    return repr(e)


def expr_uses(e: E, vars_out: Set[str], arrays_out: Set[str]) -> None:
    """Collect variable names read and arrays read by ``e``."""
    if isinstance(e, EVar):
        vars_out.add(e.name)
    elif isinstance(e, EAccess):
        arrays_out.add(e.array)
        expr_uses(e.index, vars_out, arrays_out)
    elif isinstance(e, EBinop):
        expr_uses(e.left, vars_out, arrays_out)
        expr_uses(e.right, vars_out, arrays_out)
    elif isinstance(e, EUnop):
        expr_uses(e.operand, vars_out, arrays_out)
    elif isinstance(e, ECond):
        expr_uses(e.cond, vars_out, arrays_out)
        expr_uses(e.then, vars_out, arrays_out)
        expr_uses(e.els, vars_out, arrays_out)
    elif isinstance(e, ECall):
        for a in e.args:
            expr_uses(a, vars_out, arrays_out)


def subexprs(e: E) -> Tuple[E, ...]:
    """The direct operands of an expression node."""
    if isinstance(e, EAccess):
        return (e.index,)
    if isinstance(e, EBinop):
        return (e.left, e.right)
    if isinstance(e, EUnop):
        return (e.operand,)
    if isinstance(e, ECond):
        return (e.cond, e.then, e.els)
    if isinstance(e, ECall):
        return e.args
    return ()


def free_vars(e: E) -> Set[str]:
    vs: Set[str] = set()
    expr_uses(e, vs, set())
    return vs


def arrays_read(e: E) -> Set[str]:
    arrs: Set[str] = set()
    expr_uses(e, set(), arrs)
    return arrs


def is_increment(e: E, name: str) -> bool:
    """Whether ``e`` is ``name + 1`` (or ``1 + name``)."""
    if not (isinstance(e, EBinop) and e.op == "+"):
        return False
    return any(
        isinstance(v, EVar) and v.name == name
        and isinstance(one, ELit) and one.value == 1
        for v, one in ((e.left, e.right), (e.right, e.left))
    )


def stmt_exprs(p: P) -> Tuple[E, ...]:
    """The expressions ``p`` itself evaluates — a leaf statement's
    operands, the condition of a ``while``/``if`` — not those of nested
    statements.  The one table of "what does this statement read" under
    every analysis, pass and backend; a :class:`PSearch` reads its own
    variable besides its bound and its target."""
    if isinstance(p, PAssign):
        return (p.expr,)
    if isinstance(p, PStore):
        return (p.index, p.expr)
    if isinstance(p, PSearch):
        return (p.var, p.hi, p.target)
    if isinstance(p, PSort):
        return (p.count,)
    if isinstance(p, (PWhile, PIf)):
        return (p.cond,)
    return ()


def substatements(p: P) -> Tuple[P, ...]:
    """The statements nested directly inside ``p``."""
    if isinstance(p, PSeq):
        return p.items
    if isinstance(p, PWhile):
        return (p.body,)
    if isinstance(p, PIf):
        return (p.then,) if p.els is None else (p.then, p.els)
    return ()


def stmt_effects(p: P) -> Tuple[Set[str], Set[str]]:
    """(variables assigned, arrays stored) anywhere inside ``p``."""
    assigned: Set[str] = set()
    stored: Set[str] = set()

    def walk(s: P) -> None:
        if isinstance(s, (PAssign, PSearch)):
            assigned.add(s.var.name)
        elif isinstance(s, PStore):
            stored.add(s.array)
        elif isinstance(s, PSort):
            stored.add(s.array)
        for sub in substatements(s):
            walk(sub)

    walk(p)
    return assigned, stored


def stmt_reads(p: P) -> Set[str]:
    """Every variable *read* anywhere inside ``p``."""
    out: Set[str] = set()

    def walk(s: P) -> None:
        for e in stmt_exprs(s):
            expr_uses(e, out, set())
        for sub in substatements(s):
            walk(sub)

    walk(p)
    return out


def program_size(p: P) -> Counter[str]:
    """What ``p`` is made of: ``statements`` (leaf **P** statements plus
    one per ``while``/``if``), ``nodes`` (every **E** node under them),
    and how many of the statements are the two primitives — ``sort``,
    ``search.linear``, ``search.binary`` — the size measures
    ``python -m repro.compiler.analysis`` reports."""

    def nodes(e: E) -> int:
        return 1 + sum(nodes(x) for x in subexprs(e))

    size: Counter[str] = Counter()
    for sub in substatements(p):
        size += program_size(sub)
    if isinstance(p, (PAssign, PStore, PSearch, PSort, PWhile, PIf)):
        size["statements"] += 1
        size["nodes"] += sum(nodes(e) for e in stmt_exprs(p))
    if isinstance(p, PSort):
        size["sort"] += 1
    elif isinstance(p, PSearch):
        size[f"search.{p.strategy}"] += 1
    return size


def live_transfer(p: P, live: Set[str]) -> Set[str]:
    """The backward liveness transfer for one *leaf* statement: kill the
    assigned variable, then gen everything the statement reads.  Shared
    by :class:`LiveVariables` and the dead-store-elimination pass."""
    if isinstance(p, PAssign):
        live = live - {p.var.name}
    return live.union(*(free_vars(e) for e in stmt_exprs(p)))


# ----------------------------------------------------------------------
# the fixpoint engines
# ----------------------------------------------------------------------
class ForwardAnalysis(Generic[S]):
    """A forward analysis: state flows top-to-bottom through the tree.

    Subclasses implement ``transfer`` (leaf statements only — the
    engine handles sequencing, branching, and loops), ``join``, and
    optionally ``refine`` (branch-condition refinement, used by the
    interval domain) and ``widen`` (for infinite-height domains).
    ``observe`` is called with the *in*-state of every leaf statement
    and every condition on a final post-fixpoint pass, which is where
    instances record their per-program-point results.
    """

    #: iteration bound before ``widen`` is forced (loops)
    max_iter: int = 16

    def transfer(self, stmt: P, state: S) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def eq(self, a: S, b: S) -> bool:
        return bool(a == b)

    def widen(self, older: S, newer: S) -> S:
        return newer

    def refine(self, cond: E, branch: bool, state: S) -> S:
        return state

    def observe(self, stmt: P, state: S) -> None:
        pass

    def observe_cond(self, owner: P, cond: E, state: S) -> None:
        pass


def run_forward(p: P, analysis: ForwardAnalysis[S], state: S) -> S:
    """Run ``analysis`` over ``p`` from ``state``; returns the exit
    state.  Observation hooks fire exactly once per program point."""
    return _forward(p, analysis, state, observe=True)


def _forward(p: P, an: ForwardAnalysis[S], state: S, observe: bool) -> S:
    if isinstance(p, PSeq):
        for item in p.items:
            state = _forward(item, an, state, observe)
        return state
    if isinstance(p, PIf):
        if observe:
            an.observe_cond(p, p.cond, state)
        t = _forward(p.then, an, an.refine(p.cond, True, state), observe)
        if p.els is not None:
            e = _forward(p.els, an, an.refine(p.cond, False, state), observe)
        else:
            e = an.refine(p.cond, False, state)
        return an.join(t, e)
    if isinstance(p, PWhile):
        head = state
        for iteration in range(an.max_iter):
            out = _forward(p.body, an, an.refine(p.cond, True, head), False)
            joined = an.join(head, out)
            if an.eq(joined, head):
                break
            head = an.widen(head, joined) if iteration >= 2 else joined
        else:  # pragma: no cover - widening guarantees convergence
            raise RuntimeError("dataflow fixpoint did not converge")
        if observe:
            an.observe_cond(p, p.cond, head)
            _forward(p.body, an, an.refine(p.cond, True, head), True)
        return an.refine(p.cond, False, head)
    # leaf statements: PAssign, PStore, PSearch, PSort, PSkip, PComment
    if observe:
        an.observe(p, state)
    return an.transfer(p, state)


class BackwardAnalysis(Generic[S]):
    """A backward analysis: state flows bottom-to-top (e.g. liveness)."""

    max_iter: int = 16

    def transfer(self, stmt: P, state: S) -> S:
        raise NotImplementedError

    def transfer_cond(self, cond: E, state: S) -> S:
        return state

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def eq(self, a: S, b: S) -> bool:
        return bool(a == b)

    def observe(self, stmt: P, state: S) -> None:
        pass


def run_backward(p: P, analysis: BackwardAnalysis[S], state: S) -> S:
    """Run ``analysis`` over ``p`` from exit state ``state``; returns
    the entry state."""
    return _backward(p, analysis, state, observe=True)


def _backward(p: P, an: BackwardAnalysis[S], state: S, observe: bool) -> S:
    if isinstance(p, PSeq):
        for item in reversed(p.items):
            state = _backward(item, an, state, observe)
        return state
    if isinstance(p, PIf):
        t = _backward(p.then, an, state, observe)
        e = _backward(p.els, an, state, observe) if p.els is not None else state
        return an.transfer_cond(p.cond, an.join(t, e))
    if isinstance(p, PWhile):
        # entry state L satisfies L = cond ⊔ exit ⊔ body-entry(L)
        head = an.transfer_cond(p.cond, state)
        for _ in range(an.max_iter):
            body_in = _backward(p.body, an, head, False)
            joined = an.join(head, an.transfer_cond(p.cond, an.join(state, body_in)))
            if an.eq(joined, head):
                break
            head = joined
        else:  # pragma: no cover - finite domains converge
            raise RuntimeError("dataflow fixpoint did not converge")
        if observe:
            _backward(p.body, an, head, True)
        return head
    if observe:
        an.observe(p, state)
    return an.transfer(p, state)


# ----------------------------------------------------------------------
# reaching definitions
# ----------------------------------------------------------------------
#: pseudo-definition labels for the state at kernel entry
ENTRY_PARAM = "<param>"
ENTRY_ZERO = "<zero-init>"

RDState = Dict[str, FrozenSet[str]]


def _def_label(stmt: Union[PAssign, PSearch]) -> str:
    return f"def@{id(stmt):x}:{stmt.var.name}"


class ReachingDefinitions(ForwardAnalysis[RDState]):
    """Which definitions of each variable may reach each program point.

    The entry state maps parameters to :data:`ENTRY_PARAM` and declared
    locals to :data:`ENTRY_ZERO` (both backends zero-initialize every
    declared local at kernel entry).  After :func:`run_forward`,
    ``uses`` maps each (statement, variable) use to the set of def
    labels that reach it — the raw material for use-before-def
    checking and def-use chains.
    """

    def __init__(self) -> None:
        #: (id(stmt), var) -> reaching def labels at that use
        self.uses: Dict[Tuple[int, str], FrozenSet[str]] = {}
        #: def label -> the defining statement's repr (diagnostics)
        self.def_reprs: Dict[str, str] = {}
        #: (id(stmt), var) -> repr of the reading statement
        self.use_reprs: Dict[Tuple[int, str], str] = {}

    @staticmethod
    def entry_state(params: List[str], decls: List[str]) -> RDState:
        state: RDState = {name: frozenset((ENTRY_PARAM,)) for name in params}
        for name in decls:
            state.setdefault(name, frozenset((ENTRY_ZERO,)))
        return state

    def transfer(self, stmt: P, state: RDState) -> RDState:
        if isinstance(stmt, (PAssign, PSearch)):
            label = _def_label(stmt)
            self.def_reprs[label] = repr(stmt)
            new = dict(state)
            new[stmt.var.name] = frozenset((label,))
            return new
        return state

    def join(self, a: RDState, b: RDState) -> RDState:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, frozenset()) | v
        return out

    def _record(self, stmt: P, e: E, state: RDState) -> None:
        for name in free_vars(e):
            key = (id(stmt), name)
            self.uses[key] = self.uses.get(key, frozenset()) | state.get(
                name, frozenset()
            )
            self.use_reprs[key] = repr(stmt)

    def observe(self, stmt: P, state: RDState) -> None:
        for e in stmt_exprs(stmt):
            self._record(stmt, e, state)

    def observe_cond(self, owner: P, cond: E, state: RDState) -> None:
        self._record(owner, cond, state)


class DefUse:
    """Def-use chains: for every definition, the uses it may reach."""

    def __init__(self, rd: ReachingDefinitions) -> None:
        self.rd = rd
        #: def label -> set of (id(stmt), var) uses it reaches
        self.uses_of_def: Dict[str, Set[Tuple[int, str]]] = {}
        for use, defs in rd.uses.items():
            for label in defs:
                self.uses_of_def.setdefault(label, set()).add(use)

    def dead_defs(self) -> List[str]:
        """Def labels (real assignments, not entry pseudo-defs) that
        reach no use — dead stores a DSE pass should have removed."""
        return [
            label
            for label in self.rd.def_reprs
            if label not in self.uses_of_def
        ]


def def_use_chains(
    body: P, params: List[str], decls: List[str]
) -> DefUse:
    """Compute def-use chains for a kernel body."""
    rd = ReachingDefinitions()
    run_forward(body, rd, ReachingDefinitions.entry_state(params, decls))
    return DefUse(rd)


# ----------------------------------------------------------------------
# live variables
# ----------------------------------------------------------------------
LVState = FrozenSet[str]


class LiveVariables(BackwardAnalysis[LVState]):
    """Classic backward liveness; ``live_in`` records the live set
    *before* each leaf statement (keyed by ``id``)."""

    def __init__(self) -> None:
        self.live_in: Dict[int, LVState] = {}

    def transfer(self, stmt: P, state: LVState) -> LVState:
        result = frozenset(live_transfer(stmt, set(state)))
        self.live_in[id(stmt)] = result
        return result

    def transfer_cond(self, cond: E, state: LVState) -> LVState:
        return state | frozenset(free_vars(cond))

    def join(self, a: LVState, b: LVState) -> LVState:
        return a | b


def liveness(body: P, live_out: Optional[Set[str]] = None) -> LiveVariables:
    """Run liveness over a kernel body; ``live_out`` is the set of
    variables read after the body (e.g. none for a full kernel)."""
    lv = LiveVariables()
    run_backward(body, lv, frozenset(live_out or ()))
    return lv


#: re-exported for callers that want the module as one namespace
__all__ = [
    "ForwardAnalysis",
    "BackwardAnalysis",
    "ReachingDefinitions",
    "LiveVariables",
    "DefUse",
    "ENTRY_PARAM",
    "ENTRY_ZERO",
    "RDState",
    "LVState",
    "run_forward",
    "run_backward",
    "def_use_chains",
    "liveness",
    "expr_key",
    "expr_uses",
    "free_vars",
    "arrays_read",
    "subexprs",
    "is_increment",
    "stmt_exprs",
    "substatements",
    "stmt_effects",
    "stmt_reads",
    "program_size",
    "live_transfer",
]
