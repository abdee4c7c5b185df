"""A reference interpreter for **P** (the run/eval semantics of §7.2).

The paper relates syntactic streams to indexed streams through semantic
functions ``run : P → S → S`` and ``eval : E α → S → α`` over machine
states.  This module implements those functions directly: a machine
state is a dict of local variables plus the parameter arrays.  The
interpreter is slow but is the semantic yardstick the code generators
are tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict

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
    PComment,
    PIf,
    PSearch,
    PSeq,
    PSkip,
    PSort,
    PStore,
    PWhile,
    TINT,
)

MachineState = Dict[str, Any]


def eval_expr(e: E, state: MachineState) -> Any:
    """``eval : E α → S → α``."""
    if isinstance(e, EVar):
        return state[e.name]
    if isinstance(e, ELit):
        return e.value
    if isinstance(e, EAccess):
        return state[e.array][eval_expr(e.index, state)]
    if isinstance(e, EBinop):
        op = e.op
        if op == "&&":
            return bool(eval_expr(e.left, state)) and bool(eval_expr(e.right, state))
        if op == "||":
            return bool(eval_expr(e.left, state)) or bool(eval_expr(e.right, state))
        a = eval_expr(e.left, state)
        b = eval_expr(e.right, state)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a // b if e.type == TINT else a / b
        if op == "%":
            return a % b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        raise ValueError(f"unknown binop {op!r}")
    if isinstance(e, EUnop):
        v = eval_expr(e.operand, state)
        return (not v) if e.op == "!" else (-v)
    if isinstance(e, ECond):
        return (
            eval_expr(e.then, state)
            if eval_expr(e.cond, state)
            else eval_expr(e.els, state)
        )
    if isinstance(e, ECall):
        return e.op.spec(*[eval_expr(a, state) for a in e.args])
    raise TypeError(f"cannot evaluate {e!r}")


def run_stmt(p: P, state: MachineState, fuel: int = 100_000_000) -> int:
    """``run : P → S → S`` (state is mutated in place).

    ``fuel`` bounds total loop iterations, turning non-termination into
    an error; the remaining fuel is returned."""
    if isinstance(p, (PSkip, PComment)):
        return fuel
    if isinstance(p, PSeq):
        for item in p.items:
            fuel = run_stmt(item, state, fuel)
        return fuel
    if isinstance(p, PAssign):
        state[p.var.name] = eval_expr(p.expr, state)
        return fuel
    if isinstance(p, PStore):
        state[p.array][eval_expr(p.index, state)] = eval_expr(p.expr, state)
        return fuel
    if isinstance(p, PWhile):
        while eval_expr(p.cond, state):
            fuel -= 1
            if fuel <= 0:
                raise RuntimeError("interpreter ran out of fuel (non-termination?)")
            fuel = run_stmt(p.body, state, fuel)
        return fuel
    if isinstance(p, PIf):
        if eval_expr(p.cond, state):
            return run_stmt(p.then, state, fuel)
        if p.els is not None:
            return run_stmt(p.els, state, fuel)
        return fuel
    if isinstance(p, PSearch):
        # the specification itself, whatever the strategy
        q, hi = state[p.var.name], eval_expr(p.hi, state)
        target, array = eval_expr(p.target, state), state[p.array]
        if q < hi and array[q] < target:
            state[p.var.name] = bisect_left(array, target, q + 1, hi)
        return fuel
    if isinstance(p, PSort):
        count = eval_expr(p.count, state)
        state[p.array][:count].sort()
        return fuel
    raise TypeError(f"cannot run {p!r}")


class InterpKernel:
    """A kernel executed by the reference interpreter."""

    def __init__(self, name: str, params, decls, body: P) -> None:
        self.name = name
        self.params = list(params)
        self.decls = list(decls)
        self.body = body
        self.source = repr(body)
        # precomputed per-call scaffolding: declared locals all start at
        # 0 and the parameter-name list never changes
        self._base_state: MachineState = {v.name: 0 for v in self.decls}
        self._param_names = [p.name for p in self.params]

    def __call__(self, env: Dict[str, Any]) -> None:
        state = dict(self._base_state)
        for name in self._param_names:
            state[name] = env[name]
        run_stmt(self.body, state)
