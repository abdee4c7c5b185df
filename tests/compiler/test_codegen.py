"""C and Python code generation: emission shapes and backend parity."""

import math
import re

import numpy as np
import pytest

from repro.compiler import (
    EAccess, EBinop, ECall, ECond, ELit, EUnop, EVar, Op,
    PAssign, PIf, PSeq, PSkip, PStore, PWhile, TBOOL, TFLOAT, TINT,
)
from repro.compiler import codegen_c, codegen_py
from repro.compiler.formats import Param
from repro.compiler.ir import PSort, blit, ilit
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import TypeContext, Var
from repro.workloads import nested_sum, sparse_matrix


def test_c_expr_emission():
    x = EVar("x")
    assert codegen_c.emit_expr(EBinop("+", x, ilit(3), TINT)) == "(x + 3)"
    assert codegen_c.emit_expr(EAccess("arr", x, TINT)) == "arr[x]"
    assert codegen_c.emit_expr(blit(True)) == "true"
    assert codegen_c.emit_expr(ELit(math.inf, TFLOAT)) == "INFINITY"
    assert codegen_c.emit_expr(ELit(-math.inf, TFLOAT)) == "-INFINITY"
    assert codegen_c.emit_expr(EUnop("!", x, TBOOL)) == "(!x)"
    assert codegen_c.emit_expr(ECond(blit(True), ilit(1), ilit(2))) == "1"
    assert "?" in codegen_c.emit_expr(ECond(EVar("c", TBOOL), ilit(1), ilit(2)))
    mn = codegen_c.emit_expr(EBinop("min", x, ilit(2), TINT))
    assert "<" in mn and "?" in mn


def test_c_stmt_emission():
    body = PSeq(
        PAssign(EVar("i"), ilit(0)),
        PWhile(EBinop("<", EVar("i"), ilit(3), TBOOL),
               PAssign(EVar("i"), EBinop("+", EVar("i"), ilit(1), TINT))),
        PIf(blit(True), PSkip(), PAssign(EVar("i"), ilit(9))),
        PStore("a", ilit(0), EVar("i")),
        PSort("lst", EVar("i")),
    )
    text = codegen_c.emit_stmt(body)
    assert "while ((i < 3))" in text
    assert "a[0] = i;" in text
    assert "qsort(lst" in text


def test_py_expr_emission():
    x = EVar("x")
    assert codegen_py.emit_expr(EBinop("&&", x, x, TBOOL)) == "(x and x)"
    assert codegen_py.emit_expr(EBinop("||", x, x, TBOOL)) == "(x or x)"
    assert codegen_py.emit_expr(EBinop("/", x, ilit(2), TINT)) == "(x // 2)"
    assert codegen_py.emit_expr(EUnop("!", x, TBOOL)) == "(not x)"
    assert codegen_py.emit_expr(ELit(math.inf, TFLOAT)) == "_inf"
    # a constant condition folds the conditional away entirely
    assert codegen_py.emit_expr(ECond(blit(True), ilit(1), ilit(2))) == "1"
    assert "if" in codegen_py.emit_expr(ECond(EVar("c", TBOOL), ilit(1), ilit(2)))
    assert codegen_py.emit_expr(EBinop("min", x, ilit(2), TINT)) == "min(x, 2)"


def test_c_kernel_compiles_and_runs():
    # out[0] = a[0] + a[1] using the full gcc pipeline
    params = [Param("a", "array", TINT), Param("out", "array", TINT)]
    body = PStore(
        "out", ilit(0),
        EBinop("+", EAccess("a", ilit(0), TINT), EAccess("a", ilit(1), TINT), TINT),
    )
    source = codegen_c.emit_kernel_source("addk", params, [], body)
    kernel = codegen_c.CKernel(source, "addk", params)
    env = {"a": np.array([3, 4], dtype=np.int64), "out": np.zeros(1, dtype=np.int64)}
    kernel(env)
    assert env["out"][0] == 7


def test_c_kernel_custom_op_header():
    # an op's C text comes from outside the compiler and may call libc:
    # a kernel that uses one keeps <math.h>, <stdlib.h> and <string.h>
    op = Op(
        "triple", (TINT,), TINT,
        spec=lambda v: 3 * abs(v),
        c_expr=lambda v: f"triple({v})",
        c_header="static int64_t triple(int64_t v) { return 3 * llabs(v); }",
    )
    params = [Param("out", "array", TINT)]
    body = PStore("out", ilit(0), ECall(op, [ilit(-5)]))
    source = codegen_c.emit_kernel_source("opk", params, [], body)
    assert "static int64_t triple" in source
    kernel = codegen_c.CKernel(source, "opk", params)
    env = {"out": np.zeros(1, dtype=np.int64)}
    kernel(env)
    assert env["out"][0] == 15


def test_py_kernel_runs_with_op():
    op = Op("sq", (TINT,), TINT, spec=lambda v: v * v, c_expr=lambda v: f"({v}*{v})")
    params = [Param("out", "array", TINT)]
    body = PStore("out", ilit(0), ECall(op, [ilit(6)]))
    kernel = codegen_py.PyKernel("sqk", params, [], body)
    env = {"out": np.zeros(1, dtype=np.int64)}
    kernel(env)
    assert env["out"][0] == 36
    assert "def sqk" in kernel.source


def test_c_kernel_cache_hits():
    params = [Param("out", "array", TINT)]
    body = PStore("out", ilit(0), ilit(1))
    source = codegen_c.emit_kernel_source("cachek", params, [], body)
    k1 = codegen_c.CKernel(source, "cachek", params)
    k2 = codegen_c.CKernel(source, "cachek", params)
    assert k1._lib is k2._lib  # same CDLL from the in-process cache


# ----------------------------------------------------------------------
# generated-code size: linear in the expression, not geometric in depth
# ----------------------------------------------------------------------
def _c_source(kernel):
    """The C translation unit of a kernel built on any backend (text
    emission needs no toolchain)."""
    return codegen_c.emit_kernel_source(
        kernel.name, kernel.params, kernel.decls, kernel.loop_ir
    )


def _sum_abc(depth):
    """``Σ_all (A + B + C)`` over ``depth`` compressed levels."""
    expr, ctx, tensors, total = nested_sum(depth, 3)
    kernel = compile_kernel(expr, ctx, tensors, None, backend="interp",
                            cache=False, name=f"sum_abc_{depth}")
    return kernel, tensors, total


def test_nested_sum_source_grows_linearly_with_depth():
    """Each level of a sum binds its merge predicates once, so doubling
    the depth about doubles the code (it used to grow 7.2×: every level
    pasted the enclosing levels' predicates into its own)."""
    shallow, _, _ = _sum_abc(2)
    deep, tensors, total = _sum_abc(4)
    assert len(_c_source(deep)) <= 3 * len(_c_source(shallow))
    assert deep.run(tensors) == total


def test_q9_source_fits_its_byte_budget():
    """TPC-H Q9 — a sum of two four-way products under three more
    factors, five levels deep — was 77 KB of C; it is ~15 KB."""
    from repro.tpch import generate
    from repro.tpch.q9 import prepare_etch

    kernel, _ = prepare_etch(generate(0.001, seed=1), backend="interp")
    assert len(_c_source(kernel)) <= 13_000


def _csr_add():
    """Fig. 17's ``add``: ``A + B`` on CSR operands into a CSR output."""
    n = 6
    tensors = {"A": sparse_matrix(n, n, 0.3, seed=1),
               "B": sparse_matrix(n, n, 0.3, seed=2)}
    ctx = TypeContext(Schema.of(i=range(n), j=range(n)),
                      {"A": {"i", "j"}, "B": {"i", "j"}})
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (n, n))
    kernel = compile_kernel(Var("A") + Var("B"), ctx, tensors, out,
                            backend="interp", cache=False, name="lk_add_cell")
    return kernel, tensors


def _whiles(p):
    if isinstance(p, PSeq):
        return [w for x in p.items for w in _whiles(x)]
    if isinstance(p, PWhile):
        return [p] + _whiles(p.body)
    if isinstance(p, PIf):
        return _whiles(p.then) + (_whiles(p.els) if p.els is not None else [])
    return []


def test_csr_add_source_fits_its_byte_budget():
    """Both levels of a sum step by increments and the leaf appends its
    scalar directly; with an unused-free prologue that is ~2.3 KB (it
    was 2.9 KB with two scan loops and a clamped read-modify-write)."""
    kernel, tensors = _csr_add()
    assert len(_c_source(kernel)) <= 2_400
    want = {}
    for t in tensors.values():
        for idx, v in t.to_dict().items():
            want[idx] = want.get(idx, 0.0) + v
    assert kernel.run(tensors, capacity=64).to_dict() == want


def test_csr_add_has_no_scan_loop():
    """δ at a ready sum is an increment of the operands at the merge
    point: the only loops left are the two merge loops and the output's
    two ``pos`` fill loops."""
    kernel, _ = _csr_add()
    loops = _whiles(kernel.loop_ir)
    merges = [w for w in loops if "||" in repr(w.cond)]
    fills = [w for w in loops if w not in merges]
    assert len(merges) == 2 and len(fills) == 2
    assert all("out_pos1" in repr(w.body) and not _whiles(w.body) for w in fills)


def test_kernel_declares_only_the_temporaries_its_body_names():
    """The name generator hands out counters that locate, contraction
    and the optimiser then never use; no backend is given those."""
    kernel, _ = _csr_add()
    source = _c_source(kernel)
    assert kernel.decls
    for v in kernel.decls:
        assert len(re.findall(rf"\b{v.name}\b", source)) >= 2, v.name


def test_c_prologue_includes_only_what_the_body_needs():
    """A header is included only with the construct that needs it."""
    params = [Param("out", "array", TFLOAT), Param("lst", "array", TINT)]
    plain = codegen_c.emit_kernel_source(
        "k", params, [EVar("_tq0")], PAssign(EVar("_tq0"), ilit(1)))
    assert plain.count("#include") == 2  # <stdint.h>, <stdbool.h>
    inf = codegen_c.emit_kernel_source(
        "k", params, [], PStore("out", ilit(0), ELit(math.inf, TFLOAT)))
    assert "<math.h>" in inf and "<stdlib.h>" not in inf
    sort = codegen_c.emit_kernel_source("k", params, [], PSort("lst", ilit(2)))
    assert "<stdlib.h>" in sort and "_cmp_i64" in sort and "<math.h>" not in sort
