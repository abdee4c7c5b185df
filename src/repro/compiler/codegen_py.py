"""Python code generation for **P** — the toolchain-free backend.

Emits the same loop nest as the C backend as a Python function over
numpy arrays (slower, but requires no compiler and is byte-for-byte
comparable in the parity tests).

With ``vectorize=True`` the emitter additionally recognizes innermost
*counted* loops

    while p < end:
        <index defs, pure loads, accumulates or stores>
        p = p + 1

whose body is straight-line and free of loop-carried dependences other
than recognized reductions, and emits a NumPy slice expression instead
of an interpreted loop — e.g. the SpMV inner loop becomes

    out_vals[i] += (A_vals[lo:hi] * x_vals[A_crd1[lo:hi]]).sum()

Recognized effects: accumulation into a slot whose index does not
depend on ``p`` (reduction: ``.sum()``/``.min()``/``.max()``/
``.prod()``), accumulation into a scalar variable, and element-wise
stores/accumulates whose index is affine in ``p`` (``p`` or ``b + p``)
— affine indices enumerate *distinct* elements, so NumPy's simultaneous
update semantics coincide with the sequential loop.  Gather loads
(``x[crd[lo:hi]]``) are allowed; scatter *stores* through a gathered
index are not (NumPy would collapse repeated indices) and fall back.
Any unrecognized shape — conditionals, calls, boolean operators,
nested loops — falls back to the scalar emitter for that loop.

Floating-point caveat: NumPy reduces with pairwise summation, so float
results can differ from the sequential loop by rounding; semantic
comparisons in this repo go through ``Semiring.eq``, which tolerates
this.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import math

import numpy as np

from repro.compiler.formats import Param, widened
from repro.errors import CompileError
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
    TINT,
)
from repro.compiler.analysis.dataflow import (
    is_increment,
    stmt_exprs,
    subexprs,
    substatements,
)
from repro.compiler.opt import arrays_read, expr_key, free_vars, subst_vars

_PY_BINOPS = {"&&": "and", "||": "or", "%": "%"}


def emit_expr(e: E) -> str:
    return _emit_expr(fold(e))


def _emit_expr(e: E) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ELit):
        if e.type == TFLOAT and math.isinf(e.value):
            return "_inf" if e.value > 0 else "(-_inf)"
        return repr(e.value)
    if isinstance(e, EAccess):
        return f"{e.array}[{_emit_expr(e.index)}]"
    if isinstance(e, EBinop):
        a, b = _emit_expr(e.left), _emit_expr(e.right)
        if e.op == "min":
            return f"min({a}, {b})"
        if e.op == "max":
            return f"max({a}, {b})"
        if e.op == "/" and e.type == TINT:
            return f"({a} // {b})"
        op = _PY_BINOPS.get(e.op, e.op)
        return f"({a} {op} {b})"
    if isinstance(e, EUnop):
        if e.op == "!":
            return f"(not {_emit_expr(e.operand)})"
        return f"(-{_emit_expr(e.operand)})"
    if isinstance(e, ECond):
        return f"({_emit_expr(e.then)} if {_emit_expr(e.cond)} else {_emit_expr(e.els)})"
    if isinstance(e, ECall):
        return f"_op_{e.op.name}({', '.join(_emit_expr(a) for a in e.args)})"
    raise TypeError(f"cannot emit expression {e!r}")


def emit_stmt(p: P, indent: int = 1, vectorize: bool = False) -> str:
    pad = "    " * indent
    if isinstance(p, PSkip):
        return f"{pad}pass"
    if isinstance(p, PSeq):
        lines = [emit_stmt(x, indent, vectorize) for x in p.items]
        lines = [ln for ln in lines if ln.strip() != "pass" or len(lines) == 1]
        return "\n".join(lines) if lines else f"{pad}pass"
    if isinstance(p, PAssign):
        return f"{pad}{p.var.name} = {emit_expr(p.expr)}"
    if isinstance(p, PStore):
        return f"{pad}{p.array}[{emit_expr(p.index)}] = {emit_expr(p.expr)}"
    if isinstance(p, PWhile):
        if vectorize:
            vec = _try_vectorize(p, indent)
            if vec is not None:
                return vec
        return f"{pad}while {emit_expr(p.cond)}:\n{_block(p.body, indent + 1, vectorize)}"
    if isinstance(p, PIf):
        out = f"{pad}if {emit_expr(p.cond)}:\n{_block(p.then, indent + 1, vectorize)}"
        if p.els is not None and not isinstance(p.els, PSkip):
            out += f"\n{pad}else:\n{_block(p.els, indent + 1, vectorize)}"
        return out
    if isinstance(p, PComment):
        return f"{pad}# {p.text}"
    if isinstance(p, PSearch):
        # one spelling for both strategies: the result does not depend
        # on it, and a bisection of the slice is the fast one here
        q, a, hi, t = p.var.name, p.array, emit_expr(p.hi), emit_expr(p.target)
        return (f"{pad}if {q} < {hi} and {a}[{q}] < {t}:\n"
                f"{pad}    {q} = {q} + 1 + _bisect({a}[{q} + 1:{hi}], {t})")
    if isinstance(p, PSort):
        return f"{pad}{p.array}[:{emit_expr(p.count)}].sort()"
    raise TypeError(f"cannot emit statement {p!r}")


def _block(p: P, indent: int, vectorize: bool = False) -> str:
    body = emit_stmt(p, indent, vectorize)
    return body if body.strip() else "    " * indent + "pass"


# ----------------------------------------------------------------------
# the loop vectorizer
# ----------------------------------------------------------------------
class _VecFail(Exception):
    """Raised internally when a loop does not match the vector pattern."""


_REDUCERS = {"+": "sum", "min": "min", "max": "max", "*": "prod"}
_SLICE_ACCUM = {
    "+": "{lhs} += {rhs}",
    "*": "{lhs} *= {rhs}",
    "min": "{lhs} = _np.minimum({lhs}, {rhs})",
    "max": "{lhs} = _np.maximum({lhs}, {rhs})",
}
_SLOT_ACCUM = {
    "+": "{lhs} = {lhs} + ({vec}).sum()",
    "*": "{lhs} = {lhs} * ({vec}).prod()",
    "min": "{lhs} = min({lhs}, ({vec}).min())",
    "max": "{lhs} = max({lhs}, ({vec}).max())",
}


def _affine_base(idx: E, pname: str) -> Optional[E]:
    """``idx`` must be ``p`` (returns None) or ``b + p``/``p + b`` with
    ``p`` not free in ``b`` (returns ``b``); anything else fails."""
    if isinstance(idx, EVar) and idx.name == pname:
        return None
    if isinstance(idx, EBinop) and idx.op == "+":
        if isinstance(idx.right, EVar) and idx.right.name == pname:
            if pname not in free_vars(idx.left):
                return idx.left
        if isinstance(idx.left, EVar) and idx.left.name == pname:
            if pname not in free_vars(idx.right):
                return idx.right
    raise _VecFail


def _slice_code(arr: str, base: Optional[E]) -> str:
    if base is None:
        return f"{arr}[_vlo:_vhi]"
    b = _emit_expr(base)
    return f"{arr}[({b}) + _vlo:({b}) + _vhi]"


def _vec_expr(e: E, pname: str) -> str:
    """Emit ``e`` as a NumPy expression over the range ``_vlo:_vhi`` of
    the loop variable; ``e`` must contain ``p``."""
    if pname not in free_vars(e):
        return _emit_expr(e)  # loop-invariant: scalar, broadcasts
    if isinstance(e, EVar):  # e is p itself
        return "_np.arange(_vlo, _vhi)"
    if isinstance(e, EAccess):
        try:
            return _slice_code(e.array, _affine_base(e.index, pname))
        except _VecFail:
            return f"{e.array}[{_vec_expr(e.index, pname)}]"  # gather load
    if isinstance(e, EBinop):
        a = _vec_expr(e.left, pname)
        b = _vec_expr(e.right, pname)
        if e.op == "min":
            return f"_np.minimum({a}, {b})"
        if e.op == "max":
            return f"_np.maximum({a}, {b})"
        if e.op == "/":
            return f"({a} {'//' if e.type == TINT else '/'} {b})"
        if e.op in ("+", "-", "*", "%"):
            return f"({a} {e.op} {b})"
        raise _VecFail  # comparisons / && / || — no mask support
    if isinstance(e, EUnop) and e.op == "-":
        return f"(-{_vec_expr(e.operand, pname)})"
    raise _VecFail  # ECond, ECall, !


def _try_vectorize(w: PWhile, indent: int) -> Optional[str]:
    """Emit ``w`` as NumPy slice code, or None to fall back to the
    scalar loop emitter."""
    try:
        return _vectorize(w, indent)
    except _VecFail:
        return None


def _vectorize(w: PWhile, indent: int) -> str:
    cond = fold(w.cond)
    if not (
        isinstance(cond, EBinop)
        and cond.op == "<"
        and isinstance(cond.left, EVar)
        and cond.left.type == TINT
    ):
        raise _VecFail
    pname = cond.left.name
    bound = cond.right
    if pname in free_vars(bound):
        raise _VecFail

    items = [s for s in (w.body.items if isinstance(w.body, PSeq) else (w.body,))
             if not isinstance(s, (PComment, PSkip))]
    if not items:
        raise _VecFail
    incr = items[-1]
    if not (
        isinstance(incr, PAssign)
        and incr.var.name == pname
        and is_increment(fold(incr.expr), pname)
    ):
        raise _VecFail

    # classify the body: index definitions (substituted through) and
    # effects (stores / reductions)
    sub: Dict[str, E] = {}
    defs: Dict[str, E] = {}  # insertion-ordered; last value wins for fixups
    effects: List[Tuple] = []  # ("slot"/"var"/"slice", ...)
    reduced: set = set()
    for s in items[:-1]:
        if isinstance(s, PAssign):
            if s.var.name == pname:
                raise _VecFail
            e = subst_vars(fold(s.expr), sub)
            red = _match_var_reduce(s.var, e, pname)
            if red is not None:
                if s.var.name in sub or s.var.name in reduced:
                    raise _VecFail
                effects.append(("var", s.var.name, *red))
                reduced.add(s.var.name)
                continue
            if s.var.name in free_vars(e) or s.var.name in reduced:
                raise _VecFail  # loop-carried dependence
            sub[s.var.name] = e
            defs[s.var.name] = e
        elif isinstance(s, PStore):
            idx = subst_vars(fold(s.index), sub)
            rhs = subst_vars(fold(s.expr), sub)
            if pname in free_vars(idx):
                base = _affine_base(idx, pname)  # scatter via gather: fail
                effects.append(("slice", s.array, base, idx, rhs))
            else:
                effects.append(("slot", s.array, idx, rhs))
        else:
            raise _VecFail  # nested loop / branch / sort
    if not effects:
        raise _VecFail  # pure index loop: not worth a frame

    # ------------------------------------------------------------------
    # safety checks: no effect may read state another effect writes, the
    # bound and the index defs must be invariant across the whole loop
    written = {eff[1] for eff in effects if eff[0] in ("slot", "slice")}
    if len(written) + len(reduced) != len(effects):
        raise _VecFail  # two effects on one target: possible aliasing

    def check_invariant(e: E, own_target: Optional[str] = None) -> None:
        vs = free_vars(e)
        if vs & reduced:
            raise _VecFail
        arrs = arrays_read(e)
        if own_target is not None:
            arrs = arrs - {own_target}
        if arrs & written:
            raise _VecFail

    check_invariant(bound)
    if free_vars(bound) & set(defs):
        raise _VecFail  # bound recomputed per iteration
    for e in defs.values():
        check_invariant(e)

    lines: List[str] = []
    for eff in effects:
        if eff[0] == "slot":
            _, arr, idx, rhs = eff
            op, vec = _match_accum(rhs, arr, idx, pname)
            if op not in _SLOT_ACCUM or pname not in free_vars(vec):
                raise _VecFail
            check_invariant(idx)
            check_invariant(vec, own_target=None)
            lhs = f"{arr}[{_emit_expr(idx)}]"
            lines.append(_SLOT_ACCUM[op].format(lhs=lhs, vec=_vec_expr(vec, pname)))
        elif eff[0] == "var":
            _, vname, op, vec = eff
            check_invariant(vec)
            lines.append(_SLOT_ACCUM[op].format(lhs=vname, vec=_vec_expr(vec, pname)))
        else:
            _, arr, base, idx, rhs = eff
            if base is not None:
                check_invariant(base)
            op, vec = _match_accum(rhs, arr, idx, pname)
            lhs = _slice_code(arr, base)
            if op is None:
                check_invariant(vec, own_target=None)  # plain store
                lines.append(f"{lhs} = {_vec_expr(vec, pname)}")
            else:
                if op not in _SLICE_ACCUM:
                    raise _VecFail
                check_invariant(vec, own_target=None)
                lines.append(_SLICE_ACCUM[op].format(lhs=lhs, rhs=_vec_expr(vec, pname)))

    # after the loop each index variable holds its last-iteration value
    for vname, e in defs.items():
        lines.append(f"{vname} = {_emit_expr(_shift_last(e, pname))}")
    lines.append(f"{pname} = _vhi")

    pad = "    " * indent
    inner = "    " * (indent + 1)
    out = [f"{pad}_vlo = {pname}", f"{pad}_vhi = {_emit_expr(bound)}",
           f"{pad}if _vlo < _vhi:"]
    out.extend(f"{inner}{ln}" for ln in lines)
    return "\n".join(out)


def _shift_last(e: E, pname: str) -> E:
    """``e`` with ``p`` replaced by ``_vhi - 1`` (the final iteration)."""
    last = EBinop("-", EVar("_vhi", TINT), ELit(1, TINT), TINT)
    return fold(subst_vars(e, {pname: last}))


def _match_accum(rhs: E, arr: str, idx: E, pname: str):
    """Split ``arr[idx] op rest`` (an accumulation reading its own
    target) into (op, rest); a plain store returns (None, rhs)."""
    if isinstance(rhs, EBinop) and rhs.op in _REDUCERS:
        key = expr_key(idx)
        for own, rest in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
            if (
                isinstance(own, EAccess)
                and own.array == arr
                and expr_key(own.index) == key
            ):
                if arr in arrays_read(rest):
                    raise _VecFail
                return rhs.op, rest
    if arr in arrays_read(rhs):
        raise _VecFail
    return None, rhs


def _match_var_reduce(var: EVar, e: E, pname: str):
    """Match ``v = v op rest`` with ``p`` free in rest: a scalar
    reduction.  Returns (op, rest) or None."""
    if not (isinstance(e, EBinop) and e.op in _REDUCERS):
        return None
    for own, rest in ((e.left, e.right), (e.right, e.left)):
        if isinstance(own, EVar) and own.name == var.name:
            if var.name in free_vars(rest) or pname not in free_vars(rest):
                return None
            return e.op, rest
    return None


# ----------------------------------------------------------------------
# the checked (sanitizing) mode
# ----------------------------------------------------------------------
class _CheckedArray:
    """A bounds-verifying proxy over one kernel array.

    The checked Python backend (``REPRO_SANITIZE``) wraps every array
    parameter in one of these, so *every* subscript the generated code
    performs — loads, stores, and the ``PSort``/``PSearch`` slices — is validated
    against the allocation.  Out-of-bounds access (including negative
    indices, which NumPy would silently wrap) raises ``IndexError``
    naming the kernel, array, index, and length — the Python analogue
    of an ASan report, with the same fail-loudly contract.

    An array the kernel wrapper ``reserved`` uninitialised also keeps
    a mask of the slots stored in this call, and a load touching any
    other slot raises ``ValueError`` — the analogue of MSan."""

    __slots__ = ("kernel", "name", "data", "written")

    def __init__(self, kernel: str, name: str, data, reserved: bool = False) -> None:
        self.kernel = kernel
        self.name = name
        self.data = data
        self.written = np.zeros(len(data), dtype=bool) if reserved else None

    def _fail(self, index: object) -> None:
        raise IndexError(
            f"kernel {self.kernel!r}: out-of-bounds access "
            f"{self.name}[{index}] (length {len(self.data)})"
        )

    def _check(self, index: object) -> None:
        n = len(self.data)
        if isinstance(index, slice):
            if index.step is not None:
                self._fail(index)
            start = 0 if index.start is None else int(index.start)
            stop = n if index.stop is None else int(index.stop)
            if not (0 <= start <= n and 0 <= stop <= n):
                self._fail(index)
            return
        if not 0 <= int(index) < n:
            self._fail(index)

    def __getitem__(self, index):
        self._check(index)
        if self.written is not None and not self.written[index].all():
            raise ValueError(
                f"kernel {self.kernel!r}: read of unwritten {self.name}"
                f"[{index}] (reserved uninitialised, not stored this call)"
            )
        return self.data[index]

    def __setitem__(self, index, value) -> None:
        self._check(index)
        self.data[index] = value
        if self.written is not None:
            self.written[index] = True

    def __len__(self) -> int:
        return len(self.data)


def _checked_preamble(name: str, params: Sequence[Param], reserved: Sequence[str]) -> str:
    return "\n".join(
        f"    {p.name} = _chk({name!r}, {p.name!r}, {p.name}"
        f"{', True' if p.name in reserved else ''})"
        for p in params
        if p.kind == "array"
    )


# ----------------------------------------------------------------------
# kernel object
# ----------------------------------------------------------------------
def _collect_ops(p: P, acc: Dict[str, object]) -> None:
    def walk_e(e: E) -> None:
        if isinstance(e, ECall):
            acc[e.op.name] = e.op.spec
        for x in subexprs(e):
            walk_e(x)

    for e in stmt_exprs(p):
        walk_e(e)
    for sub in substatements(p):
        _collect_ops(sub, acc)


def emit_kernel_source(
    name: str,
    params: Sequence[Param],
    decls,
    body: P,
    vectorize: bool = False,
    checked: bool = False,
    reserved: Sequence[str] = (),
) -> str:
    """The kernel as Python source; ``checked`` wraps every array in a
    :class:`_CheckedArray`, tracking the stores into those named in
    ``reserved`` (the ones the caller allocates uninitialised)."""
    arg_list = ", ".join(p.name for p in params)
    decl_lines = "\n".join(
        f"    {v.name} = " + ("0.0" if v.type == TFLOAT else "False" if v.type == TBOOL else "0")
        for v in decls
    )
    if checked:
        # the checked emitter is scalar: vectorized slice expressions
        # would bypass the per-subscript bounds checks
        vectorize = False
        preamble = _checked_preamble(name, params, reserved)
        if preamble:
            decl_lines = preamble + ("\n" + decl_lines if decl_lines else "")
    return f"def {name}({arg_list}):\n{decl_lines}\n{emit_stmt(body, 1, vectorize)}\n"


class PyKernel:
    """A kernel executed as generated Python code."""

    def __init__(
        self,
        name: str,
        params: Sequence[Param],
        decls,
        body: P,
        vectorize: bool = False,
        checked: bool = False,
        reserved: Sequence[str] = (),
    ) -> None:
        source = emit_kernel_source(
            name, params, decls, body, vectorize=vectorize, checked=checked,
            reserved=reserved,
        )
        ops: Dict[str, object] = {}
        _collect_ops(body, ops)
        self._setup(name, params, source, ops)

    @classmethod
    def from_source(cls, name: str, params: Sequence[Param], source: str) -> "PyKernel":
        """Reconstruct a kernel from previously emitted source (the disk
        cache tier; only kernels without user-defined ops are cached)."""
        self = cls.__new__(cls)
        self._setup(name, params, source, {})
        return self

    def _setup(
        self, name: str, params: Sequence[Param], source: str, ops: Dict[str, object]
    ) -> None:
        self.source = source
        self.name = name
        self.params = list(params)
        self._param_names = [p.name for p in self.params]
        self._widen = widened(self.params)
        namespace: Dict[str, object] = {
            "_inf": math.inf, "_np": np, "_chk": _CheckedArray,
            "_bisect": bisect_left,
        }
        for op_name, spec in ops.items():
            namespace[f"_op_{op_name}"] = spec
        try:
            exec(compile(source, f"<kernel {name}>", "exec"), namespace)
            self._fn = namespace[name]
        except (SyntaxError, ValueError, KeyError) as exc:
            # freshly emitted source always compiles; this fires on a
            # tampered/truncated disk-cache payload, which the builder
            # must treat as corruption, not crash on
            raise CompileError(
                f"generated Python source for kernel {name!r} is invalid: {exc}"
            ) from exc

    def __call__(self, env: Dict[str, object]) -> None:
        args = map(env.__getitem__, self._param_names)
        if self._widen:
            args = list(args)
            for i in self._widen:
                args[i] = args[i].astype(np.int64)
        self._fn(*args)
