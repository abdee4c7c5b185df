"""The typed IR verifier: unit tests plus mutation tests.

The unit tests feed hand-built E/P fragments through
``verify_program`` and check that each invariant class is caught.  The
mutation tests monkeypatch one optimization pass at a time to emit
broken IR and assert that the post-pass verification in ``optimize``
raises :class:`IRVerifyError` *naming that pass* — the property that
makes ``REPRO_IR_VERIFY=1`` a useful blame assigner.
"""

import numpy as np
import pytest

from repro.compiler import opt, resilience
from repro.compiler.analysis.verifier import (
    VerifyContext,
    check_program,
    verify_kernel,
    verify_program,
)
from repro.compiler.formats import Param
from repro.compiler.ir import (
    EAccess,
    EBinop,
    ECall,
    ECond,
    ELit,
    EUnop,
    EVar,
    NameGen,
    Op,
    PAssign,
    PIf,
    PSearch,
    PSeq,
    PSort,
    PStore,
    PWhile,
    TBOOL,
    TFLOAT,
    TINT,
    blit,
    c_type,
    ilit,
)
from repro.compiler.build import _check_no_shadowing, compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.errors import IRVerifyError
from repro.krelation import Schema
from repro.krelation.schema import ShapeError
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT

V = EVar
FV = lambda n: EVar(n, TFLOAT)


def ctx_of(**kw):
    return VerifyContext(
        arrays=kw.get("arrays", {}),
        scalars=kw.get("scalars", {}),
        locals=kw.get("locals", {}),
    )


def errors(issues):
    return [i for i in issues if i.severity == "error"]


def invariants(issues):
    return {i.invariant for i in issues}


# ---------------------------------------------------------------- units
class TestVerifyProgram:
    def test_clean_program(self):
        ctx = ctx_of(arrays={"a": TFLOAT}, scalars={"n": TINT},
                     locals={"i": TINT, "acc": TFLOAT})
        body = PSeq(
            PAssign(V("i"), ilit(0)),
            PAssign(FV("acc"), ELit(0.0, TFLOAT)),
            PWhile(
                EBinop("<", V("i"), V("n"), TBOOL),
                PSeq(
                    PAssign(FV("acc"),
                            EBinop("+", FV("acc"),
                                   EAccess("a", V("i"), TFLOAT), TFLOAT)),
                    PAssign(V("i"), EBinop("+", V("i"), ilit(1), TINT)),
                ),
            ),
        )
        assert verify_program(body, ctx) == []

    def test_undefined_variable(self):
        issues = verify_program(PAssign(V("x"), V("ghost")),
                                ctx_of(locals={"x": TINT}))
        assert "undefined-variable" in invariants(errors(issues))

    def test_assign_to_undeclared(self):
        issues = verify_program(PAssign(V("nowhere"), ilit(1)), ctx_of())
        assert errors(issues)

    def test_assign_to_param_rejected(self):
        issues = verify_program(PAssign(V("n"), ilit(1)),
                                ctx_of(scalars={"n": TINT}))
        assert "assign-to-param" in invariants(errors(issues))

    def test_operator_type_mismatch(self):
        bad = EBinop("+", ilit(1), ELit(1.0, TFLOAT), TINT)
        issues = verify_program(PAssign(V("x"), bad), ctx_of(locals={"x": TINT}))
        assert "operator-type" in invariants(errors(issues))

    def test_logical_op_requires_bool(self):
        bad = EBinop("&&", ilit(1), blit(True), TBOOL)
        issues = verify_program(PAssign(V("b", TBOOL), bad),
                                ctx_of(locals={"b": TBOOL}))
        assert errors(issues)

    def test_comparison_yields_bool(self):
        # a comparison annotated as int is an invariant violation
        bad = EBinop("<", ilit(1), ilit(2), TINT)
        issues = verify_program(PAssign(V("x"), bad), ctx_of(locals={"x": TINT}))
        assert errors(issues)

    def test_unop_not_requires_bool(self):
        issues = verify_program(
            PAssign(V("b", TBOOL), EUnop("!", ilit(3), TBOOL)),
            ctx_of(locals={"b": TBOOL}),
        )
        assert errors(issues)

    def test_store_unknown_array(self):
        issues = verify_program(PStore("ghost", ilit(0), ilit(1)), ctx_of())
        assert "undefined-array" in invariants(errors(issues))

    def test_store_element_type_mismatch(self):
        issues = verify_program(
            PStore("a", ilit(0), ELit(2.5, TFLOAT)),
            ctx_of(arrays={"a": TINT}),
        )
        assert "array-consistency" in invariants(errors(issues))

    def test_store_index_must_be_int(self):
        issues = verify_program(
            PStore("a", ELit(0.5, TFLOAT), ilit(1)),
            ctx_of(arrays={"a": TINT}),
        )
        assert errors(issues)

    def test_while_cond_must_be_bool(self):
        issues = verify_program(
            PWhile(ilit(1), PAssign(V("x"), ilit(0))),
            ctx_of(locals={"x": TINT}),
        )
        assert "condition-type" in invariants(errors(issues))

    def test_if_cond_must_be_bool(self):
        issues = verify_program(
            PIf(ilit(1), PAssign(V("x"), ilit(0))),
            ctx_of(locals={"x": TINT}),
        )
        assert errors(issues)

    def test_sort_on_float_array_rejected(self):
        issues = verify_program(
            PSort("vals", V("n")),
            ctx_of(arrays={"vals": TFLOAT}, scalars={"n": TINT}),
        )
        assert errors(issues)

    def test_search_operands(self):
        ctx = ctx_of(arrays={"crd": TINT, "vals": TFLOAT},
                     scalars={"hi": TINT, "t": TINT},
                     locals={"q": TINT, "x": TFLOAT})
        ok = PSeq(PAssign(V("q"), ilit(0)),
                  PSearch(V("q"), "crd", V("hi"), V("t"), "binary"))
        assert verify_program(ok, ctx) == []
        bad = {
            "array-consistency": PSearch(V("q"), "vals", V("hi"), V("t"), "linear"),
            "assign-to-param": PSearch(V("hi"), "crd", V("hi"), V("t"), "linear"),
            "subscript-type": PSearch(FV("x"), "crd", V("hi"), V("t"), "linear"),
            "operator-type": PSearch(V("q"), "crd", V("hi"), FV("x"), "linear"),
            # a backend may re-evaluate the bound while it moves q
            "search-operand": PSearch(
                V("q"), "crd", EBinop("+", V("q"), ilit(4), TINT), V("t"), "linear"),
        }
        for invariant, stmt in bad.items():
            assert invariant in invariants(errors(verify_program(stmt, ctx))), invariant
        # the search reads its own variable: an unassigned one is flagged
        unset = PSearch(V("q"), "crd", V("hi"), V("t"), "linear")
        assert "use-before-def" in invariants(verify_program(unset, ctx))
        with pytest.raises(ValueError):
            PSearch(V("q"), "crd", V("hi"), V("t"), "gallop")

    def test_cond_branches_must_agree(self):
        bad = ECond(blit(True), ilit(1), ELit(1.0, TFLOAT))
        issues = verify_program(PAssign(V("x"), bad), ctx_of(locals={"x": TINT}))
        assert errors(issues)

    def test_call_argument_types(self):
        op = Op("f", (TINT, TINT), TINT,
                spec=lambda a, b: a, c_expr=lambda a, b: a)
        bad = ECall(op, (ilit(1), ELit(1.0, TFLOAT)))
        issues = verify_program(PAssign(V("x"), bad), ctx_of(locals={"x": TINT}))
        assert errors(issues)

    def test_use_before_def_warning(self):
        ctx = ctx_of(locals={"x": TINT, "y": TINT})
        body = PSeq(PAssign(V("y"), V("x")), PAssign(V("x"), ilit(1)))
        issues = verify_program(body, ctx)
        assert not errors(issues)
        assert "use-before-def" in invariants(issues)

    def test_param_read_is_not_use_before_def(self):
        ctx = ctx_of(scalars={"n": TINT}, locals={"x": TINT})
        issues = verify_program(PAssign(V("x"), V("n")), ctx)
        assert "use-before-def" not in invariants(issues)


class TestCheckProgram:
    def test_strict_raises_with_pass_name(self):
        with pytest.raises(IRVerifyError) as exc:
            check_program(PAssign(V("x"), V("ghost")),
                          ctx_of(locals={"x": TINT}),
                          pass_name="cse", strict=True)
        assert exc.value.pass_name == "cse"
        assert "cse" in str(exc.value)
        assert exc.value.violations

    def test_clean_program_passes(self):
        check_program(PAssign(V("x"), ilit(1)),
                      ctx_of(locals={"x": TINT}),
                      pass_name="simplify", strict=True)

    def test_non_strict_tolerates_warnings(self):
        body = PSeq(PAssign(V("y"), V("x")), PAssign(V("x"), ilit(1)))
        check_program(body, ctx_of(locals={"x": TINT, "y": TINT}),
                      pass_name="input", strict=False)


# --------------------------------------------- satellite: typed ShapeError
class TestTypedConstruction:
    def test_c_type_unknown_raises_shape_error(self):
        with pytest.raises(ShapeError):
            c_type("quaternion")

    def test_c_type_known(self):
        assert c_type(TINT)
        assert c_type(TFLOAT)

    def test_op_bad_arg_type_rejected(self):
        with pytest.raises(ShapeError):
            Op("f", ("complex",), TINT, spec=lambda a: a, c_expr=lambda a: a)

    def test_op_bad_ret_type_rejected(self):
        with pytest.raises(ShapeError):
            Op("f", (TINT,), "complex", spec=lambda a: a, c_expr=lambda a: a)


# ------------------------------------------- satellite: reserved prefix
class TestReservedPrefix:
    def test_namegen_uses_reserved_prefix(self):
        ng = NameGen()
        v = ng.fresh("tmp")
        assert v.name.startswith("_t")
        assert v in ng.allocated

    def test_no_shadowing_detects_collision(self):
        ng = NameGen()
        ng.fresh("x")
        clash = ng.allocated[0].name
        params = [Param(clash, "scalar", TINT)]
        with pytest.raises(IRVerifyError):
            _check_no_shadowing("k", params, ng)

    def test_param_with_reserved_prefix_rejected(self):
        ng = NameGen()
        params = [Param("_tsneaky", "scalar", TINT)]
        with pytest.raises(IRVerifyError):
            _check_no_shadowing("k", params, ng)

    def test_clean_params_pass(self):
        ng = NameGen()
        ng.fresh("i")
        _check_no_shadowing("k", [Param("n", "scalar", TINT)], ng)


# ------------------------------------------------------- mutation tests
N = 5
SCHEMA = Schema.of(i=range(N), j=range(N))


def _spmv_inputs():
    A = Tensor.from_entries(
        ("i", "j"), ("dense", "sparse"), (N, N),
        {(i, j): float(i + j + 1) for i in range(N) for j in range(N)
         if (i + j) % 2 == 0},
        FLOAT,
    )
    v = Tensor.from_entries(
        ("j",), ("dense",), (N,), {(j,): float(j) for j in range(N)}, FLOAT
    )
    return {"A": A, "v": v}


def _compile_spmv(name, backend="interp"):
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
    return compile_kernel(
        Sum("j", Var("A") * Var("v")), ctx, _spmv_inputs(),
        OutputSpec(("i",), ("dense",), (N,)),
        backend=backend, cache=False, verify=True, name=name,
    )


MUTATIONS = [
    ("simplify", "simplify"),
    ("propagate_copies", "copy-prop"),
    ("hoist_loop_invariants", "licm"),
    ("eliminate_common_subexprs", "cse"),
    ("eliminate_dead_stores", "dse"),
]


@pytest.mark.parametrize("attr,pass_name", MUTATIONS, ids=[p for _, p in MUTATIONS])
def test_mutated_pass_is_blamed(monkeypatch, attr, pass_name):
    """Breaking any one pass makes the verifier raise naming that pass."""
    orig = getattr(opt, attr)

    def broken(body, *args, **kwargs):
        out = orig(body, *args, **kwargs)
        # append a store into a nonexistent array: unambiguously invalid
        return PSeq(out, PStore("__no_such_array", ilit(0), ilit(0)))

    monkeypatch.setattr(opt, attr, broken)
    with pytest.raises(IRVerifyError) as exc:
        _compile_spmv(f"mut_{pass_name.replace('-', '_')}")
    assert exc.value.pass_name == pass_name


@pytest.mark.skipif(not resilience.toolchain_available(), reason="C toolchain required")
def test_mutated_licm_leaves_a_c_build_untouched(monkeypatch):
    """LICM runs only where Python executes the loop nest: a C build
    never calls it, so a broken one changes nothing there."""
    clean = _compile_spmv("mut_licm_c", backend="c")
    monkeypatch.setattr(opt, "hoist_loop_invariants", lambda body, ng: PSeq(
        body, PStore("__no_such_array", ilit(0), ilit(0))))
    kernel = _compile_spmv("mut_licm_c", backend="c")
    assert kernel.source == clean.source
    assert np.array_equal(kernel.run(_spmv_inputs()).vals, clean.run(_spmv_inputs()).vals)


def test_unmutated_build_verifies_clean():
    kernel = _compile_spmv("mut_baseline")
    assert verify_kernel(kernel) == []


# ------------------------------------------- binding-temporary invariant
def _compile_matrix_add(name):
    """``A + B`` over two compressed levels: the outer merge binds
    ``_tat0``/``_tat1`` once per iteration and the inner loops read
    them (``guard``'s loop-invariant condition)."""
    data = {(i, j): float(i + j + 1) for i in range(N) for j in range(N)
            if (i + 2 * j) % 3 == 0}
    A = Tensor.from_entries(("i", "j"), ("sparse", "sparse"), (N, N), data, FLOAT)
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"i", "j"}})
    return compile_kernel(
        Var("A") + Var("B"), ctx, {"A": A, "B": A},
        OutputSpec(("i", "j"), ("dense", "dense"), (N, N)),
        backend="interp", cache=False, verify=True, name=name,
    )


def _sink_binding(body, moved):
    """Move the first ``_tat*`` assignment of a loop body into the next
    loop nested in that body (appending the statement to ``moved``)."""
    if isinstance(body, PSeq):
        return PSeq(*[_sink_binding(x, moved) for x in body.items])
    if isinstance(body, PIf):
        els = _sink_binding(body.els, moved) if body.els is not None else None
        return PIf(body.cond, _sink_binding(body.then, moved), els)
    if not isinstance(body, PWhile):
        return body
    items = list(body.body.items) if isinstance(body.body, PSeq) else [body.body]
    if not moved:
        at = next((k for k, s in enumerate(items) if isinstance(s, PAssign)
                   and s.var.name.startswith("_tat")), None)
        inner = next((m for m in range((at or 0) + 1, len(items))
                      if isinstance(items[m], PWhile)), None)
        if at is not None and inner is not None:
            moved.append(items[at])
            loop = items[inner]
            items[inner] = PWhile(loop.cond, PSeq(items[at], loop.body))
            del items[at]
    return PWhile(body.cond, PSeq(*[_sink_binding(x, moved) for x in items]))


def test_binding_assigned_in_nested_loop_is_blamed(monkeypatch):
    """A pass that sinks a binding temporary's assignment into a loop
    nested within the iteration that reads it is caught, and the
    verifier blames that assignment."""
    moved = []
    orig = opt.simplify
    monkeypatch.setattr(opt, "simplify",
                        lambda body: _sink_binding(orig(body), moved))
    with pytest.raises(IRVerifyError) as exc:
        _compile_matrix_add("mut_binding")
    assert len(moved) == 1
    assert exc.value.pass_name == "simplify"
    assert exc.value.stmt == repr(moved[0])
    assert exc.value.violations[0].invariant == "binding-scope"


def test_binding_invariants_on_handwritten_ir():
    ng = NameGen()
    b = ng.binding("at", TBOOL)
    i = ng.fresh("i")
    ctx = VerifyContext.from_params([Param("n", "scalar", TINT)], ng.allocated)
    step = PAssign(i, EBinop("+", i, ilit(1), TINT))
    in_range = EBinop("<", i, EVar("n"), TBOOL)
    bind = PAssign(b, EBinop("<", i, ilit(3), TBOOL))
    # bound at the top of the iteration, read below it: clean
    ok = PWhile(in_range, PSeq(bind, PIf(b, step, step)))
    assert verify_program(ok, ctx) == []
    # the loop's own condition runs before the binding step
    stale = PWhile(EBinop("&&", in_range, b, TBOOL), PSeq(bind, step))
    assert "binding-scope" in invariants(verify_program(stale, ctx))
    # two assignment sites
    twice = PWhile(in_range, PSeq(bind, PIf(b, PAssign(b, blit(False))), step))
    assert "binding-site" in invariants(verify_program(twice, ctx))


def test_search_target_is_a_read_of_a_binding_temporary():
    """A skip's target is a composite index bound once per iteration
    (``_named_index``): reading it as a ``PSearch`` target is a read
    like any other — clean inside the iteration that bound it, rejected
    after the loop."""
    ng = NameGen()
    at = ng.binding("j_at")
    i, q = ng.fresh("i"), ng.fresh("q")
    params = [Param("n", "scalar", TINT), Param("crd", "array", TINT)]
    ctx = VerifyContext.from_params(params, ng.allocated)
    step = PAssign(i, EBinop("+", i, ilit(1), TINT))
    bind = PAssign(at, EBinop("*", i, ilit(2), TINT))
    skip = PSearch(q, "crd", EVar("n"), at, "binary")
    loop = lambda *body: PSeq(
        PAssign(q, ilit(0)), PWhile(EBinop("<", i, EVar("n"), TBOOL), PSeq(*body)))
    assert verify_program(loop(bind, skip, step), ctx) == []
    outside = verify_program(PSeq(loop(bind, step), skip), ctx)
    assert "binding-scope" in invariants(errors(outside))
    before = verify_program(loop(skip, bind, step), ctx)
    assert "binding-scope" in invariants(errors(before))


def test_sum_kernel_verifies_clean():
    assert verify_kernel(_compile_matrix_add("mut_binding_baseline")) == []
