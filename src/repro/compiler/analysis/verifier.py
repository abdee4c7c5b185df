"""The typed IR verifier for **P** / **E**.

Checks, statically, the invariants every well-compiled kernel body
must satisfy:

* **operator typing** — ``EBinop``/``EUnop``/``ECond`` operand and
  result types are consistent (arithmetic on ``int``/``float`` of one
  type, comparisons yield ``bool``, ``&&``/``||``/``!`` are boolean,
  ``%`` is integer-only);
* **Op applications** — an ``ECall``'s argument types match the
  ``Op.arg_types`` signature and its type is the ``Op.ret_type``
  (arity is already enforced at construction);
* **array consistency** — every array read or stored is a declared
  array parameter, accessed at its declared element type with an
  integer subscript;
* **variables** — every variable read or assigned is a parameter or a
  declared local, used at its declared type; scalar parameters are
  never assigned;
* **primitives** — a ``PSearch`` is typed like the scan it abbreviates
  (``var < hi``, ``array[var] < target``), and neither operand names
  the variable, so a backend may re-evaluate them while it scans; a
  ``PSort`` takes an integer array and an integer count;
* **initialization** — via reaching definitions: a local read on some
  path before any assignment reaches it is flagged (both backends
  zero-initialize locals, so this is defined behavior — but in
  compiler output it means a pass deleted or reordered a live
  definition, which is exactly the DSE/LICM bug class);
* **binding temporaries** — a variable declared through
  :meth:`NameGen.binding <repro.compiler.ir.NameGen.binding>` (the
  per-iteration temporaries of a stream's binding step) has exactly one
  static assignment site, and every read of it is reached by that
  assignment *within the same loop iteration*: it is never read by the
  condition of the loop whose body binds it, never read before its
  binding step, and never assigned inside a loop nested within the
  iteration that reads it.  This is ``guard``'s "the condition is
  invariant for the guarded stream's lifetime" as a checked property.

:func:`verify_program` returns the list of :class:`Issue` findings;
:func:`check_program` raises :class:`~repro.errors.IRVerifyError` —
naming the offending pass when run inside the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compiler.analysis.dataflow import (
    ENTRY_ZERO,
    ReachingDefinitions,
    free_vars,
    run_forward,
    stmt_exprs,
    substatements,
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
    IR_TYPES,
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
    TFLOAT,
    TI32,
    TINT,
)
from repro.errors import IRVerifyError

_ARITH_OPS = ("+", "-", "*", "/")
_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_BOOL_OPS = ("&&", "||")
_MINMAX_OPS = ("min", "max")

#: the ``while`` statements (by ``id``) enclosing a program point,
#: outermost first
_Loops = Tuple[int, ...]


@dataclass(frozen=True)
class Issue:
    """One verifier finding."""

    severity: str    # "error" | "warning"
    invariant: str   # short machine-readable tag, e.g. "operator-type"
    message: str
    stmt: str        # repr of the enclosing statement

    def __str__(self) -> str:
        return f"{self.severity}[{self.invariant}]: {self.message}  in  {self.stmt}"


@dataclass(frozen=True)
class VerifyContext:
    """What the verifier knows about a kernel's environment: the
    declared arrays (name → element type), scalar parameters
    (name → type), declared locals (name → type), and which of the
    locals are binding temporaries."""

    arrays: Mapping[str, str] = field(default_factory=dict)
    scalars: Mapping[str, str] = field(default_factory=dict)
    locals: Mapping[str, str] = field(default_factory=dict)
    bindings: FrozenSet[str] = frozenset()

    @classmethod
    def from_params(
        cls, params: Sequence[object], decls: Sequence[EVar]
    ) -> "VerifyContext":
        """Build a context from kernel ``Param`` objects (anything with
        ``name``/``kind``/``ctype``) plus the NameGen-declared locals.
        A 32-bit ``crd`` holds ``TINT`` values, which **P** reads and
        stores at that type."""
        arrays: Dict[str, str] = {}
        scalars: Dict[str, str] = {}
        for p in params:
            name = getattr(p, "name")
            ctype = getattr(p, "ctype")
            if getattr(p, "kind") == "array":
                arrays[name] = TINT if ctype == TI32 else ctype
            else:
                scalars[name] = ctype
        locals_: Dict[str, str] = {v.name: v.type for v in decls}
        bindings = frozenset(v.name for v in decls if v.binding)
        return cls(arrays=arrays, scalars=scalars, locals=locals_,
                   bindings=bindings)

    def var_type(self, name: str) -> Optional[str]:
        if name in self.scalars:
            return self.scalars[name]
        return self.locals.get(name)


class _Verifier:
    def __init__(self, ctx: VerifyContext) -> None:
        self.ctx = ctx
        self.issues: List[Issue] = []

    def error(self, invariant: str, message: str, stmt: str) -> None:
        self.issues.append(Issue("error", invariant, message, stmt))

    def warning(self, invariant: str, message: str, stmt: str) -> None:
        self.issues.append(Issue("warning", invariant, message, stmt))

    # ---------------- expressions ----------------
    def check_expr(self, e: E, stmt: str) -> Optional[str]:
        """Type-check ``e``; returns its type, or None if unverifiable
        (an issue has been recorded)."""
        if isinstance(e, EVar):
            declared = self.ctx.var_type(e.name)
            if declared is None:
                self.error(
                    "undefined-variable",
                    f"variable {e.name!r} is neither a parameter nor a "
                    "declared local",
                    stmt,
                )
                return None
            if declared != e.type:
                self.error(
                    "var-type",
                    f"variable {e.name!r} used at type {e.type!r} but "
                    f"declared {declared!r}",
                    stmt,
                )
                return None
            return e.type
        if isinstance(e, ELit):
            return self._check_lit(e, stmt)
        if isinstance(e, EAccess):
            self._check_subscript(e.array, e.index, e.type, stmt, store=False)
            return e.type
        if isinstance(e, EBinop):
            return self._check_binop(e, stmt)
        if isinstance(e, EUnop):
            return self._check_unop(e, stmt)
        if isinstance(e, ECond):
            ct = self.check_expr(e.cond, stmt)
            tt = self.check_expr(e.then, stmt)
            et = self.check_expr(e.els, stmt)
            if ct is not None and ct != TBOOL:
                self.error(
                    "operator-type",
                    f"conditional scrutinee has type {ct!r}, expected bool",
                    stmt,
                )
            if tt is not None and et is not None and tt != et:
                self.error(
                    "operator-type",
                    f"conditional branches disagree: {tt!r} vs {et!r}",
                    stmt,
                )
            if tt is not None and tt != e.type:
                self.error(
                    "operator-type",
                    f"conditional annotated {e.type!r} but branches have "
                    f"type {tt!r}",
                    stmt,
                )
            return e.type
        if isinstance(e, ECall):
            return self._check_call(e, stmt)
        self.error("unknown-node", f"unknown expression node {e!r}", stmt)
        return None

    def _check_lit(self, e: ELit, stmt: str) -> Optional[str]:
        if e.type not in IR_TYPES:
            self.error("literal-type", f"literal {e.value!r} has unknown type "
                       f"{e.type!r}", stmt)
            return None
        v = e.value
        ok = (
            (e.type == TBOOL and isinstance(v, bool))
            or (e.type == TINT and isinstance(v, int) and not isinstance(v, bool))
            or (
                e.type == TFLOAT
                and isinstance(v, (int, float))
                and not isinstance(v, bool)
            )
        )
        if not ok:
            self.error(
                "literal-type",
                f"literal {v!r} ({type(v).__name__}) inconsistent with "
                f"annotated type {e.type!r}",
                stmt,
            )
            return None
        return e.type

    def _check_subscript(
        self, array: str, index: E, elem_type: str, stmt: str, store: bool
    ) -> None:
        verb = "stored" if store else "read"
        declared = self.ctx.arrays.get(array)
        if declared is None:
            if array in self.ctx.scalars or array in self.ctx.locals:
                self.error(
                    "array-consistency",
                    f"{array!r} is a scalar but is {verb} as an array",
                    stmt,
                )
            else:
                self.error(
                    "undefined-array",
                    f"array {array!r} is not a declared parameter",
                    stmt,
                )
        elif declared != elem_type:
            self.error(
                "array-consistency",
                f"array {array!r} {verb} at element type {elem_type!r} but "
                f"declared {declared!r}",
                stmt,
            )
        it = self.check_expr(index, stmt)
        if it is not None and it != TINT:
            self.error(
                "subscript-type",
                f"subscript of {array!r} has type {it!r}, expected int",
                stmt,
            )

    def _check_binop(self, e: EBinop, stmt: str) -> Optional[str]:
        lt = self.check_expr(e.left, stmt)
        rt = self.check_expr(e.right, stmt)
        if lt is None or rt is None:
            return e.type
        if e.op in _BOOL_OPS:
            if lt != TBOOL or rt != TBOOL or e.type != TBOOL:
                self.error(
                    "operator-type",
                    f"{e.op!r} requires bool operands and result, got "
                    f"{lt!r} {e.op} {rt!r} : {e.type!r}",
                    stmt,
                )
            return TBOOL
        if e.op in _CMP_OPS:
            if lt != rt:
                self.error(
                    "operator-type",
                    f"comparison {e.op!r} on mismatched types {lt!r} vs {rt!r}",
                    stmt,
                )
            if e.type != TBOOL:
                self.error(
                    "operator-type",
                    f"comparison {e.op!r} annotated {e.type!r}, expected bool",
                    stmt,
                )
            return TBOOL
        if e.op == "%":
            if lt != TINT or rt != TINT or e.type != TINT:
                self.error(
                    "operator-type",
                    f"'%' is integer-only, got {lt!r} % {rt!r} : {e.type!r}",
                    stmt,
                )
            return TINT
        if e.op in _ARITH_OPS or e.op in _MINMAX_OPS:
            if lt != rt or e.type != lt:
                self.error(
                    "operator-type",
                    f"{e.op!r} requires matching operand/result types, got "
                    f"{lt!r} {e.op} {rt!r} : {e.type!r}",
                    stmt,
                )
            elif e.op in _ARITH_OPS and lt == TBOOL:
                self.error(
                    "operator-type",
                    f"arithmetic {e.op!r} on bool operands",
                    stmt,
                )
            return e.type
        self.error("operator-type", f"unknown binary operator {e.op!r}", stmt)
        return None

    def _check_unop(self, e: EUnop, stmt: str) -> Optional[str]:
        ot = self.check_expr(e.operand, stmt)
        if ot is None:
            return e.type
        if e.op == "!":
            if ot != TBOOL or e.type != TBOOL:
                self.error(
                    "operator-type",
                    f"'!' requires bool, got {ot!r} : {e.type!r}",
                    stmt,
                )
            return TBOOL
        if e.op == "-":
            if ot == TBOOL or ot != e.type:
                self.error(
                    "operator-type",
                    f"negation requires a numeric operand matching the "
                    f"result, got {ot!r} : {e.type!r}",
                    stmt,
                )
            return e.type
        self.error("operator-type", f"unknown unary operator {e.op!r}", stmt)
        return None

    def _check_call(self, e: ECall, stmt: str) -> Optional[str]:
        if len(e.args) != len(e.op.arg_types):
            self.error(
                "op-arity",
                f"op {e.op.name!r} expects {len(e.op.arg_types)} args, "
                f"got {len(e.args)}",
                stmt,
            )
        for k, (arg, want) in enumerate(zip(e.args, e.op.arg_types)):
            got = self.check_expr(arg, stmt)
            if got is not None and got != want:
                self.error(
                    "op-type",
                    f"op {e.op.name!r} argument {k} has type {got!r}, "
                    f"signature says {want!r}",
                    stmt,
                )
        if e.type != e.op.ret_type:
            self.error(
                "op-type",
                f"call to {e.op.name!r} annotated {e.type!r} but the op "
                f"returns {e.op.ret_type!r}",
                stmt,
            )
        return e.op.ret_type

    # ---------------- statements ----------------
    def check_stmt(self, p: P) -> None:
        if isinstance(p, (PSkip, PComment)):
            return
        if isinstance(p, PSeq):
            for item in p.items:
                self.check_stmt(item)
            return
        s = repr(p)
        if isinstance(p, PAssign):
            declared = self._check_target(p.var, s)
            et = self.check_expr(p.expr, s)
            if et is not None and declared is not None and et != declared:
                self.error(
                    "assign-type",
                    f"assigning {et!r} expression to {declared!r} variable "
                    f"{p.var.name!r}",
                    s,
                )
            return
        if isinstance(p, PSearch):
            # typed like the scan it abbreviates
            self._check_target(p.var, s)
            here = EAccess(p.array, p.var, TINT)
            self.check_expr(EBinop("<", p.var, p.hi, TBOOL), s)
            self.check_expr(EBinop("<", here, p.target, TBOOL), s)
            if p.var.name in free_vars(p.hi) | free_vars(p.target):
                self.error(
                    "search-operand",
                    f"search bound or target names the searched variable "
                    f"{p.var.name!r}",
                    s,
                )
            return
        if isinstance(p, PStore):
            it = self.check_expr(p.expr, s)
            declared = self.ctx.arrays.get(p.array)
            self._check_subscript(p.array, p.index, declared or (it or TINT), s,
                                  store=True)
            if it is not None and declared is not None and it != declared:
                self.error(
                    "array-consistency",
                    f"storing {it!r} value into {declared!r} array {p.array!r}",
                    s,
                )
            return
        if isinstance(p, PSort):
            self._check_subscript(p.array, p.count, TINT, s, store=True)
            return
        if isinstance(p, (PWhile, PIf)):
            ct = self.check_expr(p.cond, s)
            if ct is not None and ct != TBOOL:
                kind = "while" if isinstance(p, PWhile) else "if"
                self.error(
                    "condition-type",
                    f"{kind} condition has type {ct!r}, expected bool",
                    s,
                )
            for sub in substatements(p):
                self.check_stmt(sub)
            return
        self.error("unknown-node", f"unknown statement node {p!r}", repr(p))

    def _check_target(self, var: EVar, s: str) -> Optional[str]:
        """An assigned variable is a declared local, assigned at its
        declared type (which is returned)."""
        declared = self.ctx.var_type(var.name)
        if var.name in self.ctx.scalars:
            self.error(
                "assign-to-param",
                f"assignment to scalar parameter {var.name!r}",
                s,
            )
        elif declared is None:
            self.error(
                "undefined-variable",
                f"assignment to undeclared variable {var.name!r}",
                s,
            )
        elif declared != var.type:
            self.error(
                "var-type",
                f"variable {var.name!r} assigned at type "
                f"{var.type!r} but declared {declared!r}",
                s,
            )
        return declared

    # ---------------- initialization ----------------
    def check_init(self, body: P) -> None:
        """Use-before-def via reaching definitions: flag a *local* read
        some path reaches before any assignment does.  Reads of
        zero-initialized locals are defined behavior at runtime, so the
        finding is a warning — but in optimizer output it almost always
        means a live definition was deleted or reordered."""
        rd = ReachingDefinitions()
        params = list(self.ctx.scalars) + list(self.ctx.arrays)
        entry = ReachingDefinitions.entry_state(params, list(self.ctx.locals))
        run_forward(body, rd, entry)
        flagged: Set[str] = set()
        for (stmt_id, name), defs in rd.uses.items():
            if name not in self.ctx.locals:
                continue
            if defs and defs == frozenset((ENTRY_ZERO,)) and name not in flagged:
                flagged.add(name)
                self.warning(
                    "use-before-def",
                    f"local {name!r} is read before any assignment reaches "
                    "it (reads the zero initializer)",
                    rd.use_reprs[(stmt_id, name)],
                )

    # ---------------- binding temporaries ----------------
    def check_bindings(self, body: P) -> None:
        """One assignment site per binding temporary, reaching every
        read within the iteration that makes it (see the module docs).

        A single walk in execution order carries ``seen``, the binding
        temporaries some path of the *current* iteration has assigned;
        a loop body starts from what the enclosing iteration had bound
        and hands nothing back, and a loop's condition is checked
        before its body is entered."""
        names = self.ctx.bindings
        if not names:
            return
        sites: Dict[str, Tuple[str, _Loops]] = {}
        unreached: Dict[str, Tuple[str, _Loops]] = {}

        def read(e: E, stmt: P, loops: _Loops, seen: Set[str]) -> None:
            for name in free_vars(e) & names:
                if name not in seen:
                    unreached.setdefault(name, (repr(stmt), loops))

        def walk(p: P, loops: _Loops, seen: Set[str]) -> Set[str]:
            for e in stmt_exprs(p):
                read(e, p, loops, seen)
            if isinstance(p, PSeq):
                for item in p.items:
                    seen = walk(item, loops, seen)
            elif isinstance(p, (PAssign, PSearch)):
                name = p.var.name
                if name in names:
                    if name in sites:
                        self.error(
                            "binding-site",
                            f"binding temporary {name!r} has a second "
                            f"assignment site (first: {sites[name][0]})",
                            repr(p),
                        )
                    else:
                        sites[name] = (repr(p), loops)
                    seen = seen | {name}
            elif isinstance(p, PIf):
                then = walk(p.then, loops, seen)
                els = walk(p.els, loops, seen) if p.els is not None else seen
                seen = then | els
            elif isinstance(p, PWhile):
                walk(p.body, loops + (id(p),), seen)
            return seen

        walk(body, (), set())
        for name, (reader, loops) in unreached.items():
            site = sites.get(name)
            if site is None:
                self.error(
                    "binding-scope",
                    f"binding temporary {name!r} is read but never assigned",
                    reader,
                )
            elif loops[:len(site[1])] != site[1]:
                self.error(
                    "binding-scope",
                    f"binding temporary {name!r} is assigned inside a loop "
                    f"nested within the iteration that reads it (read by: "
                    f"{reader})",
                    site[0],
                )
            else:
                self.error(
                    "binding-scope",
                    f"binding temporary {name!r} is read before this "
                    f"iteration's binding step assigns it ({site[0]})",
                    reader,
                )


def verify_program(
    body: P, ctx: VerifyContext, *, check_init: bool = True
) -> List[Issue]:
    """Verify a kernel body against ``ctx``; returns all findings
    (errors first, then warnings), empty when the program is clean."""
    v = _Verifier(ctx)
    v.check_stmt(body)
    v.check_bindings(body)
    if check_init:
        v.check_init(body)
    return sorted(v.issues, key=lambda i: (i.severity != "error",))


def check_program(
    body: P,
    ctx: VerifyContext,
    *,
    pass_name: Optional[str] = None,
    strict: bool = False,
    check_init: bool = True,
) -> None:
    """Raise :class:`IRVerifyError` if ``body`` fails verification.

    ``strict=True`` promotes warnings (use-before-def) to failures —
    the mode the optimizer pipeline runs in, because a kernel fresh
    out of ``compile`` defines every local before reading it, so any
    warning appearing *after* a pass is that pass's bug.
    """
    issues = verify_program(body, ctx, check_init=check_init)
    bad = [i for i in issues if strict or i.severity == "error"]
    if not bad:
        return
    head = bad[0]
    raise IRVerifyError(
        f"{len(bad)} invariant violation(s); first: {head}",
        pass_name=pass_name,
        stmt=head.stmt,
        violations=bad,
    )


def verify_kernel(kernel: object, *, check_init: bool = True) -> List[Issue]:
    """Verify a built :class:`~repro.compiler.kernel.Kernel` (the
    oracle used by the opt-parity tests).  Kernels restored from the
    disk cache carry no IR (``loop_ir is None``) and verify vacuously.
    """
    body = getattr(kernel, "loop_ir", None)
    if body is None:
        return []
    decls: Sequence[EVar] = getattr(kernel, "decls", ()) or ()
    ctx = VerifyContext.from_params(getattr(kernel, "params"), decls)
    return verify_program(body, ctx, check_init=check_init)


__all__ = [
    "Issue",
    "VerifyContext",
    "verify_program",
    "verify_kernel",
    "check_program",
]
