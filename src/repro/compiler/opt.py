"""Optimization passes over the imperative IR **P** / **E**, run between
the destination-passing ``compile`` function and code generation (the
seed compiler's only transform was :func:`~repro.compiler.ir.fold` at
emission time).  ``PIPELINE`` lists each pass with the backends it serves:

* every backend: :func:`simplify` (constant folding, branch pruning),
  :func:`propagate_copies`, :func:`eliminate_dead_stores` (assignments
  never read again) and a final :func:`simplify`;
* only where Python executes the loop nest (``python``, ``interp``):
  :func:`hoist_loop_invariants` (the always-evaluated part of a
  ``PWhile`` condition, so a guarded access never turns eager) and
  :func:`eliminate_common_subexprs` (repeated reads in straight-line
  code).  A C kernel leaves both to gcc -O3, whose loop-invariant motion
  and partial redundancy elimination derive the same temporaries.

Every pass is semantics-preserving for *any* scalar semiring: passes
only restructure index arithmetic and pure reads — semiring values are
only ever combined by the ops the lowering already chose, and literal
folding touches ``TINT``/``TBOOL`` expressions whose meaning is fixed.
All **E** expressions are pure (``Op`` specs are functional by the
paper's Figure 12 contract), which the passes rely on.  ``opt_level``
is on/off: ``0`` is the identity (the seed behavior, for ablation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import config
from repro.compiler.analysis.dataflow import (
    arrays_read,
    expr_key,
    expr_uses,
    free_vars,
    live_transfer,
    stmt_effects,
    stmt_exprs,
    stmt_reads,
)
from repro.compiler.analysis.verifier import VerifyContext, check_program
from repro.compiler.ir import (
    E,
    fold,
    EAccess,
    EBinop,
    ECall,
    ECond,
    ELit,
    EUnop,
    EVar,
    NameGen,
    P,
    PAssign,
    PComment,
    PIf,
    PSearch,
    PSeq,
    PSkip,
    PSort,
    PStore,
    PWhile,
    TBOOL,
)

DEFAULT_OPT_LEVEL = 2

# The structural helpers imported from analysis.dataflow above are
# re-exported here for existing importers.


def subst_vars(e: E, env: Dict[str, E]) -> E:
    """Replace free variables of ``e`` by the expressions in ``env``."""
    if not env:
        return e
    if isinstance(e, EVar):
        return env.get(e.name, e)
    if isinstance(e, EAccess):
        return EAccess(e.array, subst_vars(e.index, env), e.type)
    if isinstance(e, EBinop):
        return EBinop(e.op, subst_vars(e.left, env), subst_vars(e.right, env), e.type)
    if isinstance(e, EUnop):
        return EUnop(e.op, subst_vars(e.operand, env), e.type)
    if isinstance(e, ECond):
        return ECond(
            subst_vars(e.cond, env), subst_vars(e.then, env), subst_vars(e.els, env)
        )
    if isinstance(e, ECall):
        return ECall(e.op, [subst_vars(a, env) for a in e.args])
    return e


def replace_exprs(e: E, table: Dict[str, E]) -> E:
    """Replace whole subexpressions (matched structurally) by ``table``
    entries, largest match first."""
    if not table:
        return e
    hit = table.get(expr_key(e))
    if hit is not None:
        return hit
    if isinstance(e, EAccess):
        return EAccess(e.array, replace_exprs(e.index, table), e.type)
    if isinstance(e, EBinop):
        return EBinop(
            e.op, replace_exprs(e.left, table), replace_exprs(e.right, table), e.type
        )
    if isinstance(e, EUnop):
        return EUnop(e.op, replace_exprs(e.operand, table), e.type)
    if isinstance(e, ECond):
        return ECond(
            replace_exprs(e.cond, table),
            replace_exprs(e.then, table),
            replace_exprs(e.els, table),
        )
    if isinstance(e, ECall):
        return ECall(e.op, [replace_exprs(a, table) for a in e.args])
    return e


def map_stmt_exprs(p: P, fn) -> P:
    """Apply ``fn`` to every expression of ``p``, recursively."""
    if isinstance(p, PSeq):
        return PSeq(*[map_stmt_exprs(x, fn) for x in p.items])
    if isinstance(p, PAssign):
        return PAssign(p.var, fn(p.expr))
    if isinstance(p, PStore):
        return PStore(p.array, fn(p.index), fn(p.expr))
    if isinstance(p, PSearch):
        return PSearch(p.var, p.array, fn(p.hi), fn(p.target), p.strategy)
    if isinstance(p, PSort):
        return PSort(p.array, fn(p.count))
    if isinstance(p, PWhile):
        return PWhile(fn(p.cond), map_stmt_exprs(p.body, fn))
    if isinstance(p, PIf):
        els = map_stmt_exprs(p.els, fn) if p.els is not None else None
        return PIf(fn(p.cond), map_stmt_exprs(p.then, fn), els)
    return p


# ----------------------------------------------------------------------
# pass: fold + branch pruning
# ----------------------------------------------------------------------
def simplify(p: P) -> P:
    """Constant-fold every expression and prune branches whose condition
    folded to a literal.  A ``PWhile`` whose condition folds to false is
    removed entirely; a self-assignment ``v = v`` becomes a no-op."""
    if isinstance(p, PSeq):
        return PSeq(*[simplify(x) for x in p.items])
    if isinstance(p, PAssign):
        e = fold(p.expr)
        if isinstance(e, EVar) and e.name == p.var.name:
            return PSkip()
        return PAssign(p.var, e)
    if isinstance(p, (PStore, PSearch, PSort)):
        return map_stmt_exprs(p, fold)
    if isinstance(p, PWhile):
        cond = fold(p.cond)
        if isinstance(cond, ELit) and cond.type == TBOOL and not cond.value:
            return PSkip()
        return PWhile(cond, simplify(p.body))
    if isinstance(p, PIf):
        cond = fold(p.cond)
        if isinstance(cond, ELit) and cond.type == TBOOL:
            if cond.value:
                return simplify(p.then)
            return simplify(p.els) if p.els is not None else PSkip()
        then = simplify(p.then)
        els = simplify(p.els) if p.els is not None else None
        if _is_noop(then) and (els is None or _is_noop(els)):
            return PSkip()  # the condition is pure
        return PIf(cond, then, els)
    return p


def _is_noop(p: P) -> bool:
    return isinstance(p, (PSkip, PComment)) or (
        isinstance(p, PSeq) and all(_is_noop(x) for x in p.items)
    )


# ----------------------------------------------------------------------
# pass: copy propagation
# ----------------------------------------------------------------------
def propagate_copies(p: P) -> P:
    """Forward-propagate ``v = w`` / ``v = literal`` copies.

    The environment maps a variable to the ``EVar``/``ELit`` it was last
    assigned; an entry dies when either side is reassigned.  Loop bodies
    are entered with every entry touching a body-assigned variable
    killed, which makes the remaining entries valid on *every*
    iteration; branch environments are merged by intersection."""
    env: Dict[str, E] = {}
    return _cp(p, env)


def _cp_kill(env: Dict[str, E], names: Set[str]) -> None:
    if not names:
        return
    dead = [
        k
        for k, v in env.items()
        if k in names or (isinstance(v, EVar) and v.name in names)
    ]
    for k in dead:
        del env[k]


def _cp(p: P, env: Dict[str, E]) -> P:
    if isinstance(p, PSeq):
        return PSeq(*[_cp(x, env) for x in p.items])
    if isinstance(p, PAssign):
        e = subst_vars(p.expr, env)
        _cp_kill(env, {p.var.name})
        if isinstance(e, ELit) or (isinstance(e, EVar) and e.name != p.var.name):
            env[p.var.name] = e
        return PAssign(p.var, e)
    if isinstance(p, (PStore, PSearch, PSort)):
        new = map_stmt_exprs(p, lambda e: subst_vars(e, env))
        if isinstance(p, PSearch):
            _cp_kill(env, {p.var.name})
        return new
    if isinstance(p, PWhile):
        assigned, _ = stmt_effects(p.body)
        _cp_kill(env, assigned)
        cond = subst_vars(p.cond, env)
        body_env = dict(env)
        body = _cp(p.body, body_env)
        return PWhile(cond, body)
    if isinstance(p, PIf):
        cond = subst_vars(p.cond, env)
        then_env = dict(env)
        then = _cp(p.then, then_env)
        if p.els is not None:
            els_env = dict(env)
            els = _cp(p.els, els_env)
        else:
            els_env, els = env, None
        merged = {
            k: v
            for k, v in then_env.items()
            if k in els_env and expr_key(els_env[k]) == expr_key(v)
        }
        env.clear()
        env.update(merged)
        return PIf(cond, then, els)
    return p


# ----------------------------------------------------------------------
# pass: dead-store elimination
# ----------------------------------------------------------------------
def eliminate_dead_stores(p: P) -> P:
    """Remove assignments to local variables that are never read again.
    Memory effects (``PStore``/``PSort``) are always retained."""
    new_p, _ = _dse(p, set())
    return new_p


def _dse(p: P, live: Set[str]) -> Tuple[P, Set[str]]:
    if isinstance(p, PSeq):
        items: List[P] = []
        for item in reversed(p.items):
            new_item, live = _dse(item, live)
            items.append(new_item)
        return PSeq(*reversed(items)), live
    if isinstance(p, (PAssign, PSearch)):
        if p.var.name not in live:
            return PSkip(), live
        return p, live_transfer(p, live)
    if isinstance(p, (PStore, PSort)):
        return p, live_transfer(p, live)
    if isinstance(p, PWhile):
        live_in = live | free_vars(p.cond) | stmt_reads(p.body)
        body, _ = _dse(p.body, set(live_in))
        return PWhile(p.cond, body), live_in
    if isinstance(p, PIf):
        then, live_t = _dse(p.then, set(live))
        if p.els is not None:
            els, live_e = _dse(p.els, set(live))
        else:
            els, live_e = None, live
        return PIf(p.cond, then, els), live_t | live_e | free_vars(p.cond)
    return p, live


# ----------------------------------------------------------------------
# pass: common-subexpression elimination
# ----------------------------------------------------------------------
def eliminate_common_subexprs(p: P, ng: NameGen) -> P:
    """Within each straight-line run of assignments, stores and searches,
    hoist a read expression (``EAccess``/``EBinop``/``ECall``) that
    occurs at least twice with no intervening invalidation into a fresh
    temporary.

    Occurrences in *conditionally evaluated* positions (branches of an
    ``ECond``, right operands of ``&&``/``||``) are substituted when a
    temporary already exists but never force one into existence — a
    guarded array access stays guarded."""
    if isinstance(p, PSeq):
        out: List[P] = []
        segment: List[P] = []
        for item in p.items:
            if isinstance(item, (PAssign, PStore, PSearch, PComment)):
                segment.append(item)
            else:
                out.extend(_cse_segment(segment, ng))
                segment = []
                out.append(eliminate_common_subexprs(item, ng))
        out.extend(_cse_segment(segment, ng))
        return PSeq(*out)
    if isinstance(p, PWhile):
        return PWhile(p.cond, eliminate_common_subexprs(p.body, ng))
    if isinstance(p, PIf):
        els = eliminate_common_subexprs(p.els, ng) if p.els is not None else None
        return PIf(p.cond, eliminate_common_subexprs(p.then, ng), els)
    return p


def _cse_candidate(e: E) -> bool:
    if isinstance(e, EAccess):
        return True
    if isinstance(e, (EBinop, ECall)):
        vs: Set[str] = set()
        arrs: Set[str] = set()
        expr_uses(e, vs, arrs)
        return bool(vs or arrs)  # folding already handled all-literal exprs
    return False


def _cse_segment(stmts: List[P], ng: NameGen) -> List[P]:
    if len(stmts) < 2:
        return list(stmts)

    # pass 1: count occurrences per (key, epoch); an epoch ends when the
    # expression's variables/arrays are invalidated.
    counts: Dict[Tuple[str, int], int] = {}
    epoch: Dict[str, int] = {}
    meta: Dict[str, Tuple[Set[str], Set[str]]] = {}

    def count(e: E, guarded: bool) -> None:
        if _cse_candidate(e):
            k = expr_key(e)
            if k not in meta:
                vs: Set[str] = set()
                arrs: Set[str] = set()
                expr_uses(e, vs, arrs)
                meta[k] = (vs, arrs)
            counts[(k, epoch.get(k, 0))] = counts.get((k, epoch.get(k, 0)), 0) + 1
        if isinstance(e, EAccess):
            count(e.index, guarded)
        elif isinstance(e, EBinop):
            count(e.left, guarded)
            count(e.right, guarded or e.op in ("&&", "||"))
        elif isinstance(e, EUnop):
            count(e.operand, guarded)
        elif isinstance(e, ECond):
            count(e.cond, guarded)
            count(e.then, True)
            count(e.els, True)
        elif isinstance(e, ECall):
            for a in e.args:
                count(a, guarded)

    def apply_kills(stmt: P, epochs: Dict[str, int]) -> None:
        assigned, stored = stmt_effects(stmt)
        for k, (vs, arrs) in meta.items():
            if not (vs.isdisjoint(assigned) and arrs.isdisjoint(stored)):
                epochs[k] = epochs.get(k, 0) + 1

    for stmt in stmts:
        for e in stmt_exprs(stmt):
            count(e, False)
        apply_kills(stmt, epoch)

    # pass 2: rewrite, materializing a temporary at the first unguarded
    # occurrence of any key seen >= 2 times within one epoch.
    out: List[P] = []
    cur_epoch: Dict[str, int] = {}
    avail: Dict[Tuple[str, int], EVar] = {}

    def rewrite(e: E, guarded: bool) -> E:
        k = expr_key(e) if _cse_candidate(e) else None
        if k is not None:
            ep = cur_epoch.get(k, 0)
            tmp = avail.get((k, ep))
            if tmp is not None:
                return tmp
            if not guarded and counts.get((k, ep), 0) >= 2:
                rebuilt = _rebuild(e, guarded)
                tmp = ng.fresh("cse", e.type)
                out.append(PAssign(tmp, rebuilt))
                avail[(k, ep)] = tmp
                return tmp
        return _rebuild(e, guarded)

    def _rebuild(e: E, guarded: bool) -> E:
        if isinstance(e, EAccess):
            return EAccess(e.array, rewrite(e.index, guarded), e.type)
        if isinstance(e, EBinop):
            rguard = guarded or e.op in ("&&", "||")
            return EBinop(
                e.op, rewrite(e.left, guarded), rewrite(e.right, rguard), e.type
            )
        if isinstance(e, EUnop):
            return EUnop(e.op, rewrite(e.operand, guarded), e.type)
        if isinstance(e, ECond):
            return ECond(
                rewrite(e.cond, guarded),
                rewrite(e.then, True),
                rewrite(e.els, True),
            )
        if isinstance(e, ECall):
            return ECall(e.op, [rewrite(a, guarded) for a in e.args])
        return e

    for stmt in stmts:
        stmt = map_stmt_exprs(stmt, lambda e: rewrite(e, False))
        apply_kills(stmt, cur_epoch)
        out.append(stmt)
    return out


# ----------------------------------------------------------------------
# pass: loop-invariant hoisting
# ----------------------------------------------------------------------
def hoist_loop_invariants(p: P, ng: NameGen) -> P:
    """Hoist invariant subexpressions of each ``PWhile`` condition into
    temporaries assigned immediately before the loop.

    Only the *always-evaluated* part of the condition is considered (the
    left spine of ``&&``/``||`` chains, the scrutinee of conditionals),
    so hoisting evaluates exactly what the first condition check would
    have evaluated — safe even for zero-iteration loops and for guarded
    array accesses.  Every other occurrence of a hoisted expression in
    the condition or body is then replaced by the temporary."""
    if isinstance(p, PSeq):
        return PSeq(*[hoist_loop_invariants(x, ng) for x in p.items])
    if isinstance(p, PIf):
        els = hoist_loop_invariants(p.els, ng) if p.els is not None else None
        return PIf(p.cond, hoist_loop_invariants(p.then, ng), els)
    if not isinstance(p, PWhile):
        return p

    body = hoist_loop_invariants(p.body, ng)
    assigned, stored = stmt_effects(body)

    def invariant(e: E) -> bool:
        vs: Set[str] = set()
        arrs: Set[str] = set()
        expr_uses(e, vs, arrs)
        return not (vs & assigned) and not (arrs & stored)

    hoisted: List[E] = []
    seen: Set[str] = set()

    def nontrivial(e: E) -> bool:
        return isinstance(e, (EAccess, EBinop, ECall)) and not isinstance(e, ELit)

    def collect(e: E) -> None:
        # maximal invariant subexpressions of the always-evaluated part
        if nontrivial(e) and invariant(e):
            k = expr_key(e)
            if k not in seen:
                seen.add(k)
                hoisted.append(e)
            return
        if isinstance(e, EBinop):
            collect(e.left)
            if e.op not in ("&&", "||"):
                collect(e.right)
        elif isinstance(e, EUnop):
            collect(e.operand)
        elif isinstance(e, ECond):
            collect(e.cond)
        elif isinstance(e, EAccess):
            collect(e.index)
        elif isinstance(e, ECall):
            for a in e.args:
                collect(a)

    collect(p.cond)
    if not hoisted:
        return PWhile(p.cond, body)

    table: Dict[str, E] = {}
    pre: List[P] = []
    for e in hoisted:
        tmp = ng.fresh("inv", e.type)
        pre.append(PAssign(tmp, e))
        table[expr_key(e)] = tmp
    cond = replace_exprs(p.cond, table)
    body = map_stmt_exprs(body, lambda ex: replace_exprs(ex, table))
    return PSeq(*pre, PWhile(cond, body))


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
# Each entry is (pass name, targets it serves, runner).  The runners
# look the pass function up through the module namespace at call time,
# so tests can monkeypatch an individual pass (fault injection) and the
# pipeline — and the verifier's blame assignment — picks it up.
EVERY_TARGET = ("c", "python", "interp")
PIPELINE: List[Tuple[str, Tuple[str, ...], Callable[[P, NameGen], P]]] = [
    ("simplify", EVERY_TARGET, lambda b, ng: simplify(b)),
    ("copy-prop", EVERY_TARGET, lambda b, ng: propagate_copies(b)),
    ("licm", ("python", "interp"), lambda b, ng: hoist_loop_invariants(b, ng)),
    ("cse", ("python", "interp"), lambda b, ng: eliminate_common_subexprs(b, ng)),
    ("dse", EVERY_TARGET, lambda b, ng: eliminate_dead_stores(b)),
    ("final-simplify", EVERY_TARGET, lambda b, ng: simplify(b)),
]


def check_level(level: int) -> int:
    """``level``, which must be 0 (off) or ``DEFAULT_OPT_LEVEL`` (on)."""
    if level not in (0, DEFAULT_OPT_LEVEL):
        raise ValueError(f"opt_level is 0 or {DEFAULT_OPT_LEVEL}, not {level!r}")
    return int(level)


def optimize(
    body: P,
    ng: NameGen,
    level: int = DEFAULT_OPT_LEVEL,
    *,
    target: str = "python",
    verify: Optional[bool] = None,
    params: Optional[Sequence[object]] = None,
) -> P:
    """Run the passes ``PIPELINE`` lists for ``target`` (a backend
    name), or none at ``level=0`` (see module docs).

    With ``verify=True`` (default: the ``REPRO_IR_VERIFY`` environment
    toggle) and the kernel's ``params``, the typed IR verifier runs on
    the input and again after every pass, in strict mode (even a
    use-before-def *warning* in optimizer output means a pass deleted
    or reordered a live definition).  A violation raises
    :class:`~repro.errors.IRVerifyError` naming the offending pass.
    Verification needs the parameter list to know the typing
    environment; without ``params`` it is skipped.
    """
    check_level(level)
    if verify is None:
        verify = config.get("REPRO_IR_VERIFY")
    checking = bool(verify) and params is not None

    def check(after: str) -> None:
        if not checking:
            return
        ctx = VerifyContext.from_params(params, ng.allocated)
        check_program(body, ctx, pass_name=after, strict=True)

    check("input")
    for name, targets, run in PIPELINE:
        if level and target in targets:
            body = run(body, ng)
            check(name)
    return body
