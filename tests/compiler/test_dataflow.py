"""The dataflow framework: structural helpers and reaching definitions.

Small hand-built programs with known answers: what a statement reads
and writes, and which definitions reach each use (the verifier's
use-before-def check runs on the latter).
"""

from repro.compiler.analysis.dataflow import (
    ENTRY_PARAM,
    ENTRY_ZERO,
    ReachingDefinitions,
    arrays_read,
    free_vars,
    run_forward,
    stmt_effects,
    stmt_reads,
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
    ilit,
)

V = EVar
LT = lambda a, b: EBinop("<", a, b, TBOOL)
ADD = lambda a, b: EBinop("+", a, b, TINT)


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
