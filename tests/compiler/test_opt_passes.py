"""Unit tests for the optimizer passes on hand-written IR.

Each pass is checked structurally (did the rewrite happen) and
semantically (running the IR through the reference interpreter before
and after yields identical machine states)."""

import numpy as np
import pytest

from repro.compiler.interp import run_stmt
from repro.compiler.ir import (
    EAccess,
    EBinop,
    ECond,
    EVar,
    NameGen,
    PAssign,
    PIf,
    PSeq,
    PSkip,
    PStore,
    PWhile,
    TBOOL,
    TFLOAT,
    TINT,
    blit,
    ilit,
)
from repro.compiler.opt import (
    eliminate_common_subexprs,
    eliminate_dead_stores,
    hoist_loop_invariants,
    optimize,
    propagate_copies,
    simplify,
)

V = lambda n: EVar(n, TINT)
ACC = lambda a, i: EAccess(a, i, TINT)
ADD = lambda a, b: EBinop("+", a, b, TINT)
MUL = lambda a, b: EBinop("*", a, b, TINT)
LT = lambda a, b: EBinop("<", a, b, TBOOL)


def run(stmt, state):
    state = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in state.items()}
    run_stmt(stmt, state)
    return state


def assert_same_behavior(before, after, state, ignore=()):
    """Both programs leave the original variables and arrays in the same
    final state (new temporaries and ``ignore``d dead locals aside)."""
    s1, s2 = run(before, state), run(after, state)
    for k in state:
        if k in ignore:
            continue
        v1, v2 = s1[k], s2[k]
        if isinstance(v1, np.ndarray):
            assert np.array_equal(v1, v2), k
        else:
            assert v1 == v2, k


# ----------------------------------------------------------------------
# simplify: folding + branch pruning
# ----------------------------------------------------------------------
def test_simplify_prunes_literal_branches():
    p = PSeq(
        PIf(blit(True), PAssign(V("x"), ilit(1)), PAssign(V("x"), ilit(2))),
        PIf(blit(False), PAssign(V("y"), ilit(3)), PAssign(V("y"), ilit(4))),
        PIf(blit(False), PAssign(V("z"), ilit(5))),
    )
    q = simplify(p)
    assert repr(q) == "x = 1; y = 4"


def test_simplify_removes_false_while_and_self_assign():
    p = PSeq(
        PWhile(blit(False), PAssign(V("x"), ADD(V("x"), ilit(1)))),
        PAssign(V("y"), V("y")),
    )
    assert repr(simplify(p)) == "skip"


def test_simplify_folds_inside_statements():
    p = PStore("a", ADD(ilit(2), ilit(3)), MUL(ilit(1), V("v")))
    q = simplify(p)
    assert repr(q) == "a[5] = v"
    assert_same_behavior(p, q, {"a": np.zeros(8, dtype=np.int64), "v": 7})


def test_simplify_drops_empty_if():
    p = PIf(LT(V("x"), ilit(3)), PSkip())
    assert isinstance(simplify(p), PSkip)


# ----------------------------------------------------------------------
# copy propagation
# ----------------------------------------------------------------------
def test_copy_propagation_through_straight_line():
    p = PSeq(
        PAssign(V("x"), V("y")),
        PAssign(V("z"), ADD(V("x"), ilit(1))),
        PStore("a", V("x"), V("z")),
    )
    q = propagate_copies(p)
    assert repr(q.items[1]) == "z = (y + 1)"
    assert repr(q.items[2]) == "a[y] = z"
    assert_same_behavior(p, q, {"y": 2, "x": 0, "z": 0, "a": np.zeros(8, dtype=np.int64)})


def test_copy_killed_by_reassignment_of_source():
    p = PSeq(
        PAssign(V("x"), V("y")),
        PAssign(V("y"), ilit(9)),
        PAssign(V("z"), V("x")),  # x still holds the OLD y
    )
    q = propagate_copies(p)
    assert repr(q.items[2]) == "z = x"
    assert_same_behavior(p, q, {"x": 0, "y": 5, "z": 0})


def test_copy_not_propagated_into_loop_that_kills_it():
    p = PSeq(
        PAssign(V("x"), V("n")),
        PWhile(
            LT(V("i"), V("x")),
            PSeq(PAssign(V("x"), ADD(V("x"), ilit(-1))), PAssign(V("i"), ADD(V("i"), ilit(1)))),
        ),
    )
    q = propagate_copies(p)
    # x is reassigned in the body, so the loop condition must keep x
    assert repr(q.items[1].cond) == "(i < x)"
    assert_same_behavior(p, q, {"x": 0, "i": 0, "n": 4})


def test_literal_copy_propagated():
    p = PSeq(PAssign(V("x"), ilit(3)), PStore("a", V("x"), V("x")))
    q = propagate_copies(p)
    assert repr(q.items[1]) == "a[3] = 3"


# ----------------------------------------------------------------------
# dead-store elimination
# ----------------------------------------------------------------------
def test_dse_removes_unread_assignment():
    p = PSeq(
        PAssign(V("t"), ADD(V("x"), ilit(1))),  # dead
        PAssign(V("u"), ilit(5)),
        PStore("a", ilit(0), V("u")),
    )
    q = eliminate_dead_stores(p)
    assert repr(q) == "u = 5; a[0] = u"
    assert_same_behavior(
        p, q, {"t": 0, "u": 0, "x": 1, "a": np.zeros(4, dtype=np.int64)}, ignore=("t",)
    )


def test_dse_keeps_assignment_read_in_loop():
    p = PSeq(
        PAssign(V("i"), ilit(0)),
        PWhile(LT(V("i"), ilit(4)), PSeq(
            PStore("a", V("i"), V("i")),
            PAssign(V("i"), ADD(V("i"), ilit(1))),
        )),
    )
    q = eliminate_dead_stores(p)
    assert repr(q) == repr(p)


def test_dse_never_removes_memory_stores():
    p = PStore("a", ilit(1), ilit(7))
    assert repr(eliminate_dead_stores(p)) == repr(p)


def test_dse_overwritten_assignment_is_dead():
    p = PSeq(PAssign(V("x"), ilit(1)), PAssign(V("x"), ilit(2)), PStore("a", ilit(0), V("x")))
    q = eliminate_dead_stores(p)
    assert repr(q) == "x = 2; a[0] = x"


# ----------------------------------------------------------------------
# common-subexpression elimination
# ----------------------------------------------------------------------
def test_cse_hoists_repeated_access():
    p = PSeq(
        PAssign(V("x"), ADD(ACC("a", V("i")), ilit(1))),
        PAssign(V("y"), ADD(ACC("a", V("i")), ilit(2))),
    )
    q = eliminate_common_subexprs(p, NameGen())
    assert repr(q.items[0]) == "_tcse0 = a[i]"
    assert repr(q.items[1]) == "x = (_tcse0 + 1)"
    assert repr(q.items[2]) == "y = (_tcse0 + 2)"
    assert_same_behavior(p, q, {"a": np.arange(8), "i": 3, "x": 0, "y": 0})


def test_cse_invalidated_by_store_to_array():
    p = PSeq(
        PAssign(V("x"), ACC("a", ilit(0))),
        PStore("a", ilit(0), ilit(9)),
        PAssign(V("y"), ACC("a", ilit(0))),  # must re-read
    )
    q = eliminate_common_subexprs(p, NameGen())
    assert "cse" not in repr(q)
    assert_same_behavior(p, q, {"a": np.zeros(2, dtype=np.int64), "x": 0, "y": 0})


def test_cse_invalidated_by_index_var_assignment():
    p = PSeq(
        PAssign(V("x"), ACC("a", V("i"))),
        PAssign(V("i"), ADD(V("i"), ilit(1))),
        PAssign(V("y"), ACC("a", V("i"))),
    )
    q = eliminate_common_subexprs(p, NameGen())
    assert "cse" not in repr(q)


def test_cse_does_not_materialize_guarded_reads():
    # a[i] occurs twice but only inside ECond branches: creating a
    # temporary would evaluate it unconditionally
    cond = LT(V("i"), V("n"))
    guarded = lambda: ECond(cond, ACC("a", V("i")), ilit(0))
    p = PSeq(
        PAssign(V("x"), guarded()),
        PAssign(V("y"), guarded()),
    )
    q = eliminate_common_subexprs(p, NameGen())
    # a temporary may capture the shared condition or the whole ECond
    # (lazy either way), but never the bare guarded a[i]
    for item in q.items:
        if repr(item).startswith("cse") and "a[i]" in repr(item):
            assert "?" in repr(item)


def test_cse_run_equivalence_within_loop_body():
    body = PSeq(
        PStore("o", V("i"), ADD(ACC("a", V("i")), ACC("b", V("i")))),
        PStore("p2", V("i"), MUL(ACC("a", V("i")), ACC("b", V("i")))),
        PAssign(V("i"), ADD(V("i"), ilit(1))),
    )
    p = PSeq(PAssign(V("i"), ilit(0)), PWhile(LT(V("i"), ilit(6)), body))
    q = eliminate_common_subexprs(p, NameGen())
    assert "_tcse0" in repr(q)
    state = {
        "i": 0,
        "a": np.arange(6),
        "b": np.arange(6) * 3,
        "o": np.zeros(6, dtype=np.int64),
        "p2": np.zeros(6, dtype=np.int64),
    }
    assert_same_behavior(p, q, state)


# ----------------------------------------------------------------------
# loop-invariant hoisting
# ----------------------------------------------------------------------
def test_licm_hoists_invariant_condition_load():
    body = PSeq(
        PStore("o", V("q"), ACC("a", V("q"))),
        PAssign(V("q"), ADD(V("q"), ilit(1))),
    )
    p = PWhile(LT(V("q"), ACC("pos", ADD(V("i"), ilit(1)))), body)
    q = hoist_loop_invariants(p, NameGen())
    assert isinstance(q, PSeq)
    assert repr(q.items[0]) == "_tinv0 = pos[(i + 1)]"
    assert repr(q.items[1].cond) == "(q < _tinv0)"
    state = {
        "q": 0, "i": 0,
        "pos": np.array([0, 3], dtype=np.int64),
        "a": np.arange(8),
        "o": np.zeros(8, dtype=np.int64),
    }
    assert_same_behavior(p, q, state)


def test_licm_skips_variant_bound():
    body = PSeq(PAssign(V("n"), ADD(V("n"), ilit(-1))), PAssign(V("q"), ADD(V("q"), ilit(1))))
    p = PWhile(LT(V("q"), ACC("a", V("n"))), body)
    q = hoist_loop_invariants(p, NameGen())
    assert isinstance(q, PWhile)  # nothing hoisted
    assert "inv" not in repr(q)


def test_licm_does_not_hoist_short_circuited_operand():
    # the right side of && is only evaluated when the left holds; a[q0]
    # could be out of bounds when q0 >= n, so it must stay guarded
    guard = EBinop(
        "&&", LT(V("q"), V("n")), LT(ACC("a", V("k")), ilit(5)), TBOOL
    )
    body = PAssign(V("q"), ADD(V("q"), ilit(1)))
    p = PWhile(guard, body)
    q = hoist_loop_invariants(p, NameGen())
    out = q.items[0] if isinstance(q, PSeq) else q
    assert "a[k]" not in repr(out) or not isinstance(q, PSeq)


# ----------------------------------------------------------------------
# the full pipeline
# ----------------------------------------------------------------------
def _mini_program():
    # a small spmv-shaped nest with redundancy for every pass to chew on
    body_inner = PSeq(
        PAssign(V("j"), V("q")),                      # copy
        PAssign(V("dead"), ADD(V("j"), ilit(42))),    # dead
        PStore(
            "o", V("i"),
            ADD(ACC("o", V("i")), MUL(ACC("av", V("j")), ACC("x", ACC("crd", V("j"))))),
        ),
        PAssign(V("q"), ADD(V("q"), ilit(1))),
    )
    return PSeq(
        PAssign(V("i"), ilit(0)),
        PWhile(
            LT(V("i"), ilit(2)),
            PSeq(
                PAssign(V("q"), ACC("pos", V("i"))),
                PWhile(LT(V("q"), ACC("pos", ADD(V("i"), ilit(1)))), body_inner),
                PAssign(V("i"), ADD(V("i"), ilit(1))),
            ),
        ),
    )


def _mini_state():
    return {
        "i": 0, "q": 0, "j": 0, "dead": 0,
        "pos": np.array([0, 2, 5], dtype=np.int64),
        "crd": np.array([1, 3, 0, 2, 3], dtype=np.int64),
        "av": np.array([10, 20, 30, 40, 50], dtype=np.int64),
        "x": np.array([1, 2, 3, 4], dtype=np.int64),
        "o": np.zeros(4, dtype=np.int64),
    }


def test_optimize_level0_is_identity():
    p = _mini_program()
    assert optimize(p, NameGen(), 0) is p


def test_optimize_pipeline_preserves_semantics():
    p = _mini_program()
    q = optimize(p, NameGen(), 2)
    s1, s2 = run(p, _mini_state()), run(q, _mini_state())
    assert np.array_equal(s1["o"], s2["o"])
    # the pipeline did real work: dead store gone, bound load hoisted
    assert "dead" not in repr(q)
    assert "_tinv0" in repr(q)


def test_optimize_for_c_leaves_licm_and_cse_to_gcc():
    p = _mini_program()
    q = optimize(p, NameGen(), target="c")
    s1, s2 = run(p, _mini_state()), run(q, _mini_state())
    assert np.array_equal(s1["o"], s2["o"])
    assert "dead" not in repr(q)
    assert "_tinv" not in repr(q) and "_tcse" not in repr(q)
    with pytest.raises(ValueError, match="opt_level"):
        optimize(p, NameGen(), 1)
