"""Property tests: the optimizer is semantics-preserving.

Random small contraction expressions over ℝ, ℕ, and (min, +), compiled
at ``opt_level=0`` (the seed pipeline, scalar Python) and at the
default level (full passes + vectorized Python backend), on all three
backends; results are compared elementwise.  Floating-point semirings
compare with tolerance because NumPy's pairwise reductions round
differently than the sequential loop.

Nested sums and sums of products (``tests.strategies.sum_programs``) are
additionally checked against the denotation 𝒯 at every opt level on
every backend, over linearly scanning and over galloping operands:
their merge loops read per-iteration binding
temporaries, and a temporary read after its operand's state has moved
gives a wrong answer on exactly these programs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.analysis.verifier import verify_kernel
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.compiler.opt import DEFAULT_OPT_LEVEL
from repro.data import Tensor, tensor_to_krelation
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var, denote
from repro.semirings import BOOL, FLOAT, MIN_PLUS, NAT
from tests.strategies import SUM_N, sparse_data, sum_programs

N = 6
SCHEMA = Schema.of(i=range(N), j=range(N))
BACKENDS = ("interp", "python", "c")
SEMIRINGS = {"float": FLOAT, "nat": NAT, "min_plus": MIN_PLUS}

EXPRS = {
    "dot": (Sum("i", Var("x") * Var("y")), None, ("x", "y")),
    "vmul": (Var("x") * Var("y"), OutputSpec(("i",), ("dense",), (N,)), ("x", "y")),
    "vadd": (Var("x") + Var("y"), OutputSpec(("i",), ("dense",), (N,)), ("x", "y")),
    "spmv": (
        Sum("j", Var("A") * Var("v")),
        OutputSpec(("i",), ("dense",), (N,)),
        ("A", "v"),
    ),
}


def _tensor(attrs, data, semiring, formats=None):
    formats = formats or ("dense",) * len(attrs)
    return Tensor.from_entries(attrs, formats, (N,) * len(attrs), data, semiring)


def _close(semiring, a, b):
    if semiring is NAT:
        return a == b
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _assert_equivalent(semiring, r0, r1):
    if not isinstance(r0, Tensor):
        assert _close(semiring, r0, r1)
        return
    assert np.all(
        [_close(semiring, x, y) for x, y in zip(r0.vals.ravel(), r1.vals.ravel())]
    )


@pytest.mark.parametrize("sr_name", sorted(SEMIRINGS))
@pytest.mark.parametrize("which", sorted(EXPRS))
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_opt_level_parity(sr_name, which, backend, data):
    semiring = SEMIRINGS[sr_name]
    expr, out, var_names = EXPRS[which]
    if which == "spmv":
        ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
        A = _tensor(
            ("i", "j"),
            data.draw(sparse_data(("i", "j"), max_index=N, semiring=semiring)),
            semiring,
            formats=("dense", "sparse"),
        )
        v = _tensor(
            ("j",),
            data.draw(sparse_data(("j",), max_index=N, semiring=semiring)),
            semiring,
        )
        tensors = {"A": A, "v": v}
    else:
        ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
        tensors = {
            name: _tensor(
                ("i",),
                data.draw(sparse_data(("i",), max_index=N, semiring=semiring)),
                semiring,
            )
            for name in var_names
        }

    k0 = compile_kernel(
        expr, ctx, tensors, out, backend=backend, opt_level=0,
        name=f"par0_{which}_{sr_name}_{backend}",
    )
    k2 = compile_kernel(
        expr, ctx, tensors, out, backend=backend,
        name=f"par2_{which}_{sr_name}_{backend}",
    )
    _assert_equivalent(semiring, k0.run(tensors), k2.run(tensors))


SUM_SEMIRINGS = {"float": FLOAT, "nat": NAT, "bool": BOOL, "min_plus": MIN_PLUS}


def _check_sum_program(prog, semiring, sr_name, backend, search,
                       opt_levels=(0, DEFAULT_OPT_LEVEL)):
    truth = denote(prog.expr, prog.ctx, prog.krels)
    rank = len(prog.out_attrs)
    out = (
        OutputSpec(prog.out_attrs, ("dense",) * rank, (SUM_N,) * rank)
        if rank else None
    )
    for opt_level in opt_levels:
        kernel = compile_kernel(
            prog.expr, prog.ctx, prog.tensors, out, semiring=semiring,
            backend=backend, opt_level=opt_level, verify=True, search=search,
            name=f"sum_{prog.tag}_{sr_name}_{backend}_{search[0]}o{opt_level}",
        )
        result = kernel.run(prog.tensors)
        where = f"{prog.expr!r} on {backend} at opt {opt_level} ({search} skip)"
        if rank:
            assert tensor_to_krelation(result, prog.schema).equal(truth), where
        else:
            assert semiring.eq(result, truth.total()), where


@pytest.mark.parametrize("sr_name", sorted(SUM_SEMIRINGS))
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_nested_sums_match_denotation(sr_name, backend, data):
    """2–3-operand sums and sums of products, up to three levels deep,
    agree with 𝒯 with the passes off and on — with the IR verifier
    (binding-temporary invariant included) run after every pass."""
    semiring = SUM_SEMIRINGS[sr_name]
    prog = data.draw(sum_programs(semiring))
    _check_sum_program(prog, semiring, sr_name, backend, "linear")


@pytest.mark.parametrize("sr_name", sorted(SUM_SEMIRINGS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("opt_level", (0, DEFAULT_OPT_LEVEL))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_galloping_nested_sums_match_denotation(sr_name, backend, opt_level, data):
    """The same program family over galloping (``search="binary"``)
    operands: a ready sum steps each operand at the merge point by
    ``advance1``, so galloping lives only in the products' ``skip0``.
    (One opt level per test keeps each under a second.)"""
    semiring = SUM_SEMIRINGS[sr_name]
    prog = data.draw(sum_programs(semiring))
    _check_sum_program(prog, semiring, sr_name, backend, "binary", (opt_level,))


def _fixed_tensors(which, semiring):
    if which == "spmv":
        ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
        A = _tensor(
            ("i", "j"),
            {(i, j): semiring.from_int(1 + (i + j) % 3)
             for i in range(N) for j in range(N) if (i * 5 + j) % 2 == 0},
            semiring,
            formats=("dense", "sparse"),
        )
        v = _tensor(
            ("j",), {(j,): semiring.from_int(j + 1) for j in range(N)}, semiring
        )
        return ctx, {"A": A, "v": v}
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    data = {(i,): semiring.from_int(i + 1) for i in range(N)}
    return ctx, {"x": _tensor(("i",), data, semiring),
                 "y": _tensor(("i",), dict(data), semiring)}


@pytest.mark.parametrize("opt_level", (0, DEFAULT_OPT_LEVEL))
@pytest.mark.parametrize("which", sorted(EXPRS))
def test_every_opt_level_verifies_clean(which, opt_level):
    """The typed IR verifier as a static oracle: the IR the pipeline
    emits at every opt level satisfies all invariants (and warning-free:
    no use-before-def in generated code)."""
    expr, out, _ = EXPRS[which]
    ctx, tensors = _fixed_tensors(which, FLOAT)
    kernel = compile_kernel(
        expr, ctx, tensors, out, backend="interp", opt_level=opt_level,
        cache=False, name=f"ver{opt_level}_{which}",
    )
    assert verify_kernel(kernel) == []


def test_opt_level_is_on_or_off():
    """``opt_level`` is 0 (off) or the default (on); no level between."""
    expr, out, _ = EXPRS["spmv"]
    ctx, tensors = _fixed_tensors("spmv", FLOAT)
    with pytest.raises(ValueError, match="opt_level"):
        compile_kernel(expr, ctx, tensors, out, backend="interp", opt_level=1,
                       cache=False, name="opt1_spmv")
