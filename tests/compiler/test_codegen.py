"""C and Python code generation: emission shapes and backend parity."""

import math
import re
import shutil
import subprocess
from bisect import bisect_left

import numpy as np
import pytest

from repro import config
from repro.compiler import (
    EAccess, EBinop, ECall, ECond, ELit, EUnop, EVar, Op,
    PAssign, PIf, PSeq, PSkip, PStore, PWhile, TBOOL, TFLOAT, TINT,
)
from repro.compiler import codegen_c, codegen_py
from repro.compiler.analysis.dataflow import program_size
from repro.compiler.formats import Param
from repro.compiler.interp import InterpKernel
from repro.compiler.ir import TI32, PSearch, PSort, blit, ilit
from repro.compiler.build import c_program, compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import tensor_to_krelation
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var, denote
from repro.workloads import nested_sum, sparse_matrix

from tests.conftest import bench_kernel


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
    assert "_sort_i64(lst, i, lst + i);" in text


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
    """The C translation unit a C build of a kernel built on any backend
    emits (text emission needs no toolchain)."""
    return c_program(kernel)[1]


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
    """TPC-H Q9 — one five-way join whose partsupp and lineitem
    factors stack their measures on a dense level, so profit is a
    two-step dot product innermost — is ~4.9 KB of C.  Written as a
    sum of two four-way products it was 77 KB, then ~10 KB: a union
    of terms over the same rows merges two streams at every level."""
    from repro.tpch import generate
    from repro.tpch.q9 import prepare_etch

    kernel, _ = prepare_etch(generate(0.001, seed=1), backend="interp")
    assert len(_c_source(kernel)) <= 6_000


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


@pytest.mark.parametrize("cell,budget,searches,loops", [
    # two galloping skips per co-iteration are two calls of one helper
    # (smul was 4,261 B, filtered_spmv 2,527 B with the loops pasted in):
    # a skip is one statement, so the only loops of the IR are the
    # stream levels' (and smul's one flush of its workspace)
    # (3,800 / 1,800 / 2,700 B while C kernels carried the LICM and CSE
    # temporaries gcc derives itself)
    ("smul", 3_040, {"search.binary": 2}, 4),
    ("filtered_spmv", 1_480, {"search.binary": 2}, 2),
    # the radix sort costs what the second, unreachable drain did; the
    # row level is A's dense level, which visits every row, so the two
    # ``pos`` fill loops are gone (1,990 B and 6 loops with them)
    ("mmul", 1_800, {}, 4),
])
def test_skip_and_sort_kernels_fit_their_byte_budgets(cell, budget, searches, loops):
    kernel = bench_kernel(cell, f"lk_{cell}_cell")
    source = _c_source(kernel)
    assert len(source) <= budget
    assert "qsort" not in source and "<stdlib.h>" not in source
    size = program_size(kernel.loop_ir)
    assert {k: n for k, n in size.items() if k.startswith("search.")} == searches
    assert len(_whiles(kernel.loop_ir)) == loops


def _whiles(p):
    if isinstance(p, PSeq):
        return [w for x in p.items for w in _whiles(x)]
    if isinstance(p, PWhile):
        return [p] + _whiles(p.body)
    if isinstance(p, PIf):
        return _whiles(p.then) + (_whiles(p.els) if p.els is not None else [])
    return []


def test_csr_add_source_fits_its_byte_budget():
    """The row level is one dense counter and the column level steps by
    increments, the leaf appending its scalar directly: ~1.5 KB (it was
    2.3 KB with a two-way merge over the dense rows and the ``pos``
    fills, 2.9 KB with two scan loops and a clamped read-modify-write)."""
    kernel, tensors = _csr_add()
    assert len(_c_source(kernel)) <= 1_550
    want = {}
    for t in tensors.values():
        for idx, v in t.to_dict().items():
            want[idx] = want.get(idx, 0.0) + v
    assert kernel.run(tensors, capacity=64).to_dict() == want


def test_csr_add_has_no_scan_loop():
    """δ at a ready sum is an increment of the operands at the merge
    point, so no loop scans.  A sum of the two dense row levels is one
    dense level (``(A ⊕ B)(i) = A(i) ⊕ B(i)``): one row loop, under it
    one merge loop of the compressed columns.  The row loop visits
    every row in order, so the output's ``pos`` needs no fill loop."""
    kernel, _ = _csr_add()
    loops = _whiles(kernel.loop_ir)
    merges = [w for w in loops if "||" in repr(w.cond)]
    rows = [w for w in loops if w not in merges]
    assert len(merges) == 1 and len(rows) == 1
    assert _whiles(rows[0].body) == merges
    assert not any("out_pos1" in repr(w.body) and not _whiles(w.body)
                   for w in loops)


def test_kernel_declares_only_the_temporaries_its_body_names():
    """The name generator hands out counters that locate, contraction
    and the optimiser then never use; no backend is given those."""
    kernel, _ = _csr_add()
    source = codegen_c.emit_kernel_source(
        kernel.name, kernel.params, kernel.decls, kernel.loop_ir)
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
    assert codegen_c._SORT_PROTO in sort and "_skip_gal" not in sort
    # a sort is a call into the runtime, not libc's: no header comes
    # with it, and the body is the runtime's, not the kernel's
    assert sort.count("#include") == 2 and "qsort" not in sort
    body = codegen_c._SORT_I64.split("{", 1)[1]
    assert body not in sort and "at[257]" not in sort and "at[257]" in body
    q = EVar("_tq0")
    for strategy, helper in (("linear", False), ("binary", True)):
        skip = codegen_c.emit_kernel_source(
            "k", params, [q], PSearch(q, "lst", ilit(2), ilit(7), strategy))
        assert ("static inline" in skip) == helper
        assert skip.count("#include") == 2 and "_sort_i64" not in skip


BENCH_CELLS = ["spmv", "add", "inner", "mmul", "smul", "mttkrp", "filtered_spmv",
               "triangle", "tpch_q5", "tpch_q9"]


def test_c_kernels_leave_licm_and_cse_to_gcc():
    """Loop-invariant hoisting and CSE run where Python executes the
    loop nest; a C kernel leaves both to gcc -O3."""
    temporaries = re.compile(r"\b_t(inv|cse)\d")
    for cell in BENCH_CELLS:
        source = _c_source(bench_kernel(cell, f"nolicm_{cell}"))
        assert not temporaries.search(source), cell
    spmv = bench_kernel("spmv", "licm_spmv", backend="python")
    assert temporaries.search(spmv.source)


def _tool_lines(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()


@pytest.mark.skipif(shutil.which("nm") is None or shutil.which("readelf") is None,
                    reason="binutils required")
@pytest.mark.skipif(shutil.which(config.get("REPRO_GCC")) is None,
                    reason="C toolchain required")
@pytest.mark.skipif(bool(config.get("REPRO_SANITIZE")),
                    reason="a sanitized build links the sanitizer runtimes")
@pytest.mark.parametrize("cell", BENCH_CELLS)
def test_bench_kernel_links_only_what_it_calls(cell, tmp_path):
    """A kernel that includes nothing past ``<stdint.h>`` and
    ``<stdbool.h>`` links no libc: its one possible undefined symbol is
    the runtime's sort, and it names the runtime as needed exactly when
    it sorts."""
    kernel = bench_kernel(cell, f"lean_{cell}")
    source = _c_source(kernel)
    codegen_c.CKernel(source, kernel.name, kernel.params, cache_dir=str(tmp_path))
    [so] = tmp_path.glob(f"lean_{cell}_*.so")
    undefined = {line.split()[-1] for line in _tool_lines("nm", "-D", "--undefined-only", str(so))}
    assert undefined <= {"_sort_i64"}
    needed = [line.split("[")[-1].rstrip("]")
              for line in _tool_lines("readelf", "-d", str(so)) if "(NEEDED)" in line]
    runtimes = [p.name for p in tmp_path.glob("repro_rt_*.so")]
    assert needed == runtimes
    assert bool(runtimes) == (codegen_c._SORT_PROTO in source)
    # the runtime calls nothing either (no memset for its counts); a
    # toolchain that adds stack canaries by default adds their handler
    for runtime in runtimes:
        undefined = {line.split()[-1] for line in
                     _tool_lines("nm", "-D", "--undefined-only", str(tmp_path / runtime))}
        assert undefined <= {"__stack_chk_fail"}


# ----------------------------------------------------------------------
# the two primitives, directly: every backend against the specification
# ----------------------------------------------------------------------
def _on_every_backend(name, params, decls, body, env):
    """Run one hand-built body on the interpreter, the Python backend
    (plain and checked) and C, each on its own copy of ``env``; returns
    the four environments."""
    kernels = [
        InterpKernel(name, params, decls, body),
        codegen_py.PyKernel(name, params, decls, body),
        codegen_py.PyKernel(name, params, decls, body, checked=True),
        codegen_c.CKernel(
            codegen_c.emit_kernel_source(name, params, decls, body), name, params),
    ]
    envs = []
    for kernel in kernels:
        own = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in env.items()}
        kernel(own)
        envs.append(own)
    return envs


@pytest.mark.parametrize("width", [TI32, TINT], ids=["int32", "int64"])
@pytest.mark.parametrize("strategy", ["linear", "binary"])
def test_search_meets_its_specification_on_every_backend(strategy, width):
    """``PSearch`` against ``bisect_left``: empty and inverted ranges,
    a variable already at or past the target, targets before the first
    element, at every element, between elements and past ``hi``, from
    starts that make the gallop stop on its first, a middle and its
    last doubling — through a ``crd`` of either width (the skip is
    emitted for the width it reads; a target past 2**31 compares as
    the ``TINT`` it is)."""
    crd = np.cumsum(np.arange(1, 34) % 4 + 1).astype(codegen_c.np_dtype(width))
    n = len(crd)
    targets = sorted({0, 10**12, *(int(c) + d for c in crd for d in (-1, 0, 1))})
    cases = [(q, hi, t) for q in (0, 1, 7, n - 2, n - 1, n)
             for hi in (0, q, 20, n) for t in targets]
    want = [bisect_left(crd, t, q, hi) if q < hi else q for q, hi, t in cases]
    assert {0, 1, 20, n - 1, n} <= set(want)

    columns = np.array(cases, dtype=np.int64).T
    k, q = EVar("_tk0"), EVar("_tq0")
    at = lambda array: EAccess(array, k, TINT)
    body = PSeq(
        PAssign(k, ilit(0)),
        PWhile(EBinop("<", k, EVar("ncases"), TBOOL), PSeq(
            PAssign(q, at("starts")),
            PSearch(q, "crd", at("his"), at("targets"), strategy),
            PStore("out", k, q),
            PAssign(k, EBinop("+", k, ilit(1), TINT)),
        )),
    )
    params = [Param("ncases", "scalar", TINT), Param("crd", "array", width)] + [
        Param(a, "array", TINT) for a in ("starts", "his", "targets", "out")]
    env = {"ncases": len(cases), "crd": crd, "starts": columns[0],
           "his": columns[1], "targets": columns[2],
           "out": np.full(len(cases), -1, dtype=np.int64)}
    for got in _on_every_backend(f"search_{strategy}", params, [k, q], body, env):
        assert got["out"].tolist() == want


def test_sort_meets_its_specification_on_every_backend():
    """``PSort`` against ``sorted()``: both sides of the insertion-sort
    cut-off, and keys up to 2**40, so that the radix sort runs more
    than two passes; each list also sorted and reversed.  The list has
    room for ``2 * count`` elements — the upper half is the statement's
    scratch — and nothing past that is touched."""
    rng = np.random.default_rng(20)
    lists = [rng.choice(2**40, size=n, replace=False) for n in (0, 1, 2, 24, 25, 1_000)]
    lists += [np.sort(keys)[::step] for keys in lists[2:] for step in (1, -1)]
    lists.append(np.arange(300)[::-1])      # one radix pass and a bit
    params = [Param("n", "scalar", TINT), Param("a", "array", TINT)]
    body = PSort("a", EVar("n"))
    # the C leg calls the runtime's sort: its kernel holds the prototype
    source = codegen_c.emit_kernel_source("sort_table", params, [], body)
    assert codegen_c._SORT_PROTO in source and "at[" not in source
    for keys in lists:
        n = len(keys)
        env = {"n": n, "a": np.concatenate([keys, np.zeros(n), [-7, -7]]).astype(np.int64)}
        for got in _on_every_backend("sort_table", params, [], body, env):
            assert got["a"][:n].tolist() == sorted(keys.tolist())
            assert got["a"][2 * n:].tolist() == [-7, -7]


def test_workspace_drains_once_per_slice():
    """A CSR output's workspace is flushed by each row's push and by
    nothing after the row loop (there used to be a second, unreachable
    sort + flush there); a workspace that *is* the top level — a sparse
    vector output — still drains at finalize."""
    n = 12
    schema = Schema.of(i=range(n), j=range(n), k=range(n))
    A = sparse_matrix(n, n, 0.4, attrs=("i", "j"), seed=10)
    B = sparse_matrix(n, n, 0.4, attrs=("j", "k"), seed=11)
    mmul = compile_kernel(
        Sum("j", Var("A") * Var("B")),
        TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}}), {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "sparse"), (n, n)),
        backend="interp", cache=False, name="ws_mmul")
    assert program_size(mmul.loop_ir)["sort"] == 1

    X = sparse_matrix(n, n, 0.3, attrs=("i", "j"), formats=("sparse", "sparse"), seed=7)
    ctx = TypeContext(schema, {"X": {"i", "j"}})
    colsum = compile_kernel(
        Sum("i", Var("X")), ctx, {"X": X}, OutputSpec(("j",), ("sparse",), (n,)),
        backend="interp", cache=False, name="ws_colsum")
    assert program_size(colsum.loop_ir)["sort"] == 1
    truth = denote(Sum("i", Var("X")), ctx, {"X": tensor_to_krelation(X, schema)})
    assert tensor_to_krelation(colsum.run({"X": X}, capacity=n), schema).equal(truth)
