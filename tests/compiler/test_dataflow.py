"""The dataflow framework: engines, classic analyses, intervals, lint.

Small hand-built programs with known answers: reaching definitions and
use-before-def, liveness, def-use chains and dead defs, interval
arithmetic/widening, and the capacity bounds lint on the append
patterns the destinations actually emit.
"""

import pytest

from repro.compiler.analysis.dataflow import (
    ENTRY_PARAM,
    ENTRY_ZERO,
    DefUse,
    ReachingDefinitions,
    arrays_read,
    def_use_chains,
    free_vars,
    liveness,
    run_forward,
    stmt_effects,
    stmt_reads,
)
from repro.compiler.analysis.intervals import (
    ArrayContract,
    Interval,
    IntervalAnalysis,
    TOP,
    eval_interval,
    lint_bounds,
)
from repro.compiler.ir import (
    EAccess,
    EBinop,
    EVar,
    PAssign,
    PIf,
    PSeq,
    PStore,
    PWhile,
    TBOOL,
    TINT,
    emin,
    ilit,
)

from tests.conftest import bench_kernel

V = EVar
LT = lambda a, b: EBinop("<", a, b, TBOOL)
LE = lambda a, b: EBinop("<=", a, b, TBOOL)
ADD = lambda a, b: EBinop("+", a, b, TINT)
SUB = lambda a, b: EBinop("-", a, b, TINT)


# ---------------------------------------------------------- structural
class TestStructuralHelpers:
    def test_free_vars(self):
        e = ADD(V("x"), EAccess("a", V("i"), TINT))
        assert free_vars(e) == {"x", "i"}

    def test_arrays_read(self):
        e = ADD(EAccess("a", V("i"), TINT), EAccess("b", ilit(0), TINT))
        assert arrays_read(e) == {"a", "b"}

    def test_stmt_effects(self):
        body = PSeq(
            PAssign(V("x"), ilit(1)),
            PStore("out", V("x"), V("y")),
        )
        vars_written, arrays_written = stmt_effects(body)
        assert "x" in vars_written
        assert "out" in arrays_written

    def test_stmt_reads(self):
        body = PWhile(LT(V("i"), V("n")),
                      PAssign(V("i"), ADD(V("i"), ilit(1))))
        assert {"i", "n"} <= stmt_reads(body)


# ------------------------------------------------- reaching definitions
class TestReachingDefinitions:
    def run(self, body, params=(), decls=()):
        rd = ReachingDefinitions()
        run_forward(body, rd,
                    ReachingDefinitions.entry_state(list(params), list(decls)))
        return rd

    def test_param_read_reaches_entry_param(self):
        use = PAssign(V("x"), V("n"))
        rd = self.run(use, params=["n"], decls=["x"])
        assert rd.uses[(id(use), "n")] == {ENTRY_PARAM}

    def test_zero_init_read_flags_entry_zero(self):
        use = PAssign(V("y"), V("x"))
        rd = self.run(use, decls=["x", "y"])
        assert rd.uses[(id(use), "x")] == {ENTRY_ZERO}

    def test_assignment_kills_entry_def(self):
        use = PAssign(V("y"), V("x"))
        body = PSeq(PAssign(V("x"), ilit(7)), use)
        rd = self.run(body, decls=["x", "y"])
        (label,) = rd.uses[(id(use), "x")]
        assert label not in (ENTRY_PARAM, ENTRY_ZERO)
        assert "x" in rd.def_reprs[label]

    def test_branch_join_merges_defs(self):
        use = PAssign(V("y"), V("x"))
        body = PSeq(
            PIf(LT(V("n"), ilit(5)),
                PAssign(V("x"), ilit(1)),
                PAssign(V("x"), ilit(2))),
            use,
        )
        rd = self.run(body, params=["n"], decls=["x", "y"])
        assert len(rd.uses[(id(use), "x")]) == 2

    def test_loop_body_sees_its_own_def(self):
        inc = PAssign(V("i"), ADD(V("i"), ilit(1)))
        body = PWhile(LT(V("i"), V("n")), inc)
        rd = self.run(body, params=["n"], decls=["i"])
        reaching = rd.uses[(id(inc), "i")]
        assert ENTRY_ZERO in reaching
        assert any(lab not in (ENTRY_PARAM, ENTRY_ZERO) for lab in reaching)


# ----------------------------------------------------- def-use, liveness
class TestDefUseAndLiveness:
    def test_dead_def_detected(self):
        dead = PAssign(V("x"), ilit(1))
        body = PSeq(dead, PAssign(V("x"), ilit(2)),
                    PStore("out", ilit(0), V("x")))
        du = def_use_chains(body, [], ["x"])
        assert isinstance(du, DefUse)
        assert len(du.dead_defs()) == 1

    def test_no_false_dead_defs(self):
        body = PSeq(PAssign(V("x"), ilit(1)),
                    PStore("out", ilit(0), V("x")))
        du = def_use_chains(body, [], ["x"])
        assert du.dead_defs() == []

    def test_liveness_entry(self):
        # x is read before being written: live at entry
        body = PSeq(PAssign(V("y"), V("x")), PAssign(V("x"), ilit(1)))
        lv = liveness(body)
        assert lv is not None


# ------------------------------------------------------------ intervals
class TestIntervalArithmetic:
    def test_add(self):
        assert Interval(0, 3).add(Interval(1, 2)) == Interval(1, 5)

    def test_add_unbounded(self):
        assert Interval(0, None).add(Interval(1, 1)) == Interval(1, None)

    def test_sub(self):
        assert Interval(5, 10).sub(Interval(1, 2)) == Interval(3, 9)

    def test_join(self):
        assert Interval(0, 1).join(Interval(5, 9)) == Interval(0, 9)

    def test_widen_moves_to_infinity(self):
        w = Interval(0, 1).widen(Interval(0, 2))
        assert w.lo == 0 and w.hi is None

    def test_mul_signs(self):
        assert Interval(-2, 3).mul(Interval(2, 2)) == Interval(-4, 6)

    def test_min(self):
        assert Interval(0, 10).min_(Interval(3, 5)) == Interval(0, 5)

    def test_eval_comparison_is_bool01(self):
        iv = eval_interval(LT(V("i"), V("n")), {"i": TOP, "n": TOP})
        assert iv.lo == 0 and iv.hi == 1

    def test_eval_access_is_top(self):
        assert eval_interval(EAccess("a", V("i"), TINT), {}) == TOP


class TestIntervalAnalysis:
    def test_counter_loop_widens_but_stays_nonneg(self):
        inc = PAssign(V("i"), ADD(V("i"), ilit(1)))
        store = PStore("out", V("i"), ilit(0))
        body = PWhile(LT(V("i"), V("n")), PSeq(store, inc))
        ia = IntervalAnalysis()
        run_forward(body, ia,
                    IntervalAnalysis.entry_state(params=["n"], decls=["i"]))
        at_store = ia.at[id(store)]
        assert at_store["i"].lo == 0

    def test_guard_refinement(self):
        store = PStore("out", V("i"), ilit(0))
        body = PIf(LT(V("i"), ilit(10)), store)
        ia = IntervalAnalysis()
        run_forward(body, ia,
                    IntervalAnalysis.entry_state(params=["i"]))
        assert ia.at[id(store)]["i"].hi == 9


# ---------------------------------------------------------- bounds lint
def _append_loop(guarded: bool):
    """The canonical append pattern: while (...) { if (n < cap) ... ;
    crd[n] = i; n = n + 1 }, optionally without the capacity guard."""
    stores = PSeq(
        PStore("crd", V("n"), V("i")),
        PAssign(V("n"), ADD(V("n"), ilit(1))),
    )
    inner = PIf(LT(V("n"), V("cap")), stores) if guarded else stores
    return PWhile(LT(V("i"), V("m")),
                  PSeq(inner, PAssign(V("i"), ADD(V("i"), ilit(1)))))


class TestBoundsLint:
    CONTRACT = [ArrayContract("crd", V("cap"))]

    def lint(self, body):
        return lint_bounds(body, self.CONTRACT,
                           params=["m", "cap"], decls=["i", "n"])

    def test_guarded_append_proven(self):
        findings = self.lint(_append_loop(guarded=True))
        assert len(findings) == 1
        assert findings[0].proven

    def test_unguarded_append_needs_guard(self):
        findings = self.lint(_append_loop(guarded=False))
        assert len(findings) == 1
        assert not findings[0].proven
        assert "NEEDS GUARD" in str(findings[0])

    def test_min_clamp_proven(self):
        idx = emin(V("n"), SUB(V("cap"), ilit(1)))
        body = PStore("crd", idx, V("i"))
        findings = lint_bounds(body, self.CONTRACT,
                               params=["cap"], decls=["i", "n"])
        assert findings[0].proven

    def test_literal_index_with_slack(self):
        body = PStore("pos", ilit(0), ilit(0))
        findings = lint_bounds(body, [ArrayContract("pos", V("cap"), slack=1)],
                               params=["cap"])
        assert findings[0].proven

    def test_negative_index_not_proven(self):
        body = PStore("crd", SUB(ilit(0), V("k")), ilit(0))
        findings = lint_bounds(body, self.CONTRACT, params=["cap", "k"])
        assert not findings[0].proven

    def test_le_guard_with_slack(self):
        # pos arrays allow one-past-the-end writes (slack=1):
        # if (n <= cap) pos[n] = ... is fine
        body = PIf(LE(V("n"), V("cap")), PStore("pos", V("n"), ilit(0)))
        findings = lint_bounds(body, [ArrayContract("pos", V("cap"), slack=1)],
                               params=["cap"], decls=["n"])
        assert findings[0].proven

    def test_no_contracts_no_findings(self):
        assert lint_bounds(_append_loop(True), []) == []


# ------------------------------------------- the lint on whole kernels
#: the capacity lint's verdict on the benchmark's programs (Fig. 17 /
#: 19 / 20 / 21), as (array, subscript, proven) per store.  A lost
#: refinement would flip a store to unproven and silently route the C
#: kernel through the supervised fork (``needs_guard``).
PINNED_FINDINGS = {
    "spmv": [],
    # a scalar under a compressed leaf is appended directly: no clamped
    # ("out_vals", "_tcse1") read-modify-write store is left to prove
    "add": [("out_crd1", "_ton0", True), ("out_vals", "_ton0", True)],
    "inner": [],
    # one drain per row and nothing after the row loop (a CSR output's
    # workspace used to be flushed a second, unreachable time)
    "mmul": [("out_crd1", "_ton0", True), ("out_vals", "_ton0", True)],
    "smul": [("out_pos1", "0", True), ("out_crd1", "_ton0", True),
             ("out_vals", "_ton0", True), ("out_crd0", "_ton1", True),
             ("out_pos1", "_ton1", True)],
    "mttkrp": [],
    "filtered_spmv": [],
    "triangle": [],
    "tpch_q5": [],
    "tpch_q9": [],
}


@pytest.mark.parametrize("cell", sorted(PINNED_FINDINGS))
def test_benchmark_program_lint_verdicts_are_pinned(cell):
    kernel = bench_kernel(cell, f"lint_{cell}")
    assert not kernel.needs_guard
    assert [(f.array, f.index, f.proven)
            for f in kernel.capacity_findings] == PINNED_FINDINGS[cell]
