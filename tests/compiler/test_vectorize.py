"""The NumPy loop vectorizer: pattern recognition and fallback.

The vectorized Python backend must (a) actually emit slice code for the
counted-loop patterns it claims to handle, (b) fall back to the scalar
emitter everywhere else, and (c) agree with the scalar emitter exactly
on integer semirings."""

import numpy as np
import pytest

from repro import config
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import INT, MIN_PLUS

pytestmark = pytest.mark.skipif(
    bool(config.get("REPRO_SANITIZE")),
    reason="REPRO_SANITIZE switches the Python backend to the checked "
    "scalar emitter; the vectorizer is deliberately disabled",
)

N = 16
SCHEMA = Schema.of(i=range(N), j=range(N))


def _tensor(attrs, formats, entries, semiring=INT):
    return Tensor.from_entries(attrs, formats, (N,) * len(attrs), entries, semiring)


def _spmv_setup(semiring=INT):
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
    rng = np.random.default_rng(7)
    entries = {
        (i, j): int(rng.integers(1, 9))
        for i in range(N) for j in range(N) if rng.random() < 0.4
    }
    if semiring is not INT:
        entries = {k: float(v) for k, v in entries.items()}
    A = _tensor(("i", "j"), ("dense", "sparse"), entries, semiring)
    vent = {(j,): int(rng.integers(1, 9)) for j in range(N)}
    if semiring is not INT:
        vent = {k: float(v) for k, v in vent.items()}
    v = _tensor(("j",), ("dense",), vent, semiring)
    expr = Sum("j", Var("A") * Var("v"))
    out = OutputSpec(("i",), ("dense",), (N,))
    return ctx, expr, out, {"A": A, "v": v}


def test_spmv_inner_loop_vectorizes():
    ctx, expr, out, tensors = _spmv_setup()
    k = compile_kernel(expr, ctx, tensors, out, backend="python", name="vec_spmv")
    assert "_vlo:_vhi" in k.source and ".sum()" in k.source
    ks = compile_kernel(
        expr, ctx, tensors, out, backend="python", vectorize=False, name="vec_spmv_s"
    )
    assert "_vlo" not in ks.source
    # INT semiring: results are exactly equal, no rounding caveat
    assert np.array_equal(k.run(tensors).vals, ks.run(tensors).vals)


def test_min_plus_reduction_vectorizes():
    ctx, expr, out, tensors = _spmv_setup(MIN_PLUS)
    k = compile_kernel(expr, ctx, tensors, out, backend="python", name="vec_mp")
    assert ".min()" in k.source
    ks = compile_kernel(
        expr, ctx, tensors, out, backend="python", vectorize=False, name="vec_mp_s"
    )
    # min is insensitive to evaluation order: exact equality holds
    assert np.array_equal(k.run(tensors).vals, ks.run(tensors).vals)


def test_elementwise_dense_mul_vectorizes():
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    x = _tensor(("i",), ("dense",), {(i,): i + 1 for i in range(N)})
    y = _tensor(("i",), ("dense",), {(i,): 2 * i + 1 for i in range(N)})
    out = OutputSpec(("i",), ("dense",), (N,))
    k = compile_kernel(
        Var("x") * Var("y"), ctx, {"x": x, "y": y}, out,
        backend="python", name="vec_vmul",
    )
    assert "out_vals[_vlo:_vhi]" in k.source
    got = k.run({"x": x, "y": y}).vals
    assert np.array_equal(got, x.vals * y.vals)


def test_sparse_coiteration_falls_back():
    # two sparse vectors co-iterate with branches inside the loop: the
    # pattern must not match and the scalar emitter takes over
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    x = _tensor(("i",), ("sparse",), {(2,): 5, (7,): 1})
    y = _tensor(("i",), ("sparse",), {(2,): 3, (9,): 4})
    k = compile_kernel(
        Sum("i", Var("x") * Var("y")), ctx, {"x": x, "y": y}, None,
        backend="python", name="vec_dot_ss",
    )
    assert "_vlo" not in k.source
    assert k.run({"x": x, "y": y}) == 15


def test_matmul_inner_loop_vectorizes():
    schema = Schema.of(i=range(N), j=range(N), k=range(N))
    ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
    rng = np.random.default_rng(3)
    a = {(i, j): int(rng.integers(1, 5)) for i in range(N) for j in range(N)}
    b = {(j, k): int(rng.integers(1, 5)) for j in range(N) for k in range(N)}
    A = Tensor.from_entries(("i", "j"), ("dense", "dense"), (N, N), a, INT)
    B = Tensor.from_entries(("j", "k"), ("dense", "dense"), (N, N), b, INT)
    out = OutputSpec(("i", "k"), ("dense", "dense"), (N, N))
    expr = Sum("j", Var("A") * Var("B"))
    k = compile_kernel(expr, ctx, {"A": A, "B": B}, out, backend="python", name="vec_mm")
    # the inner k-loop becomes a based slice: out[b+_vlo:b+_vhi] += ...
    assert "+ _vlo:" in k.source and "+ _vhi]" in k.source
    got = k.run({"A": A, "B": B}).vals.reshape(N, N)
    want = A.vals.reshape(N, N) @ B.vals.reshape(N, N)
    assert np.array_equal(got, want)


def test_vectorize_flag_defaults_off_at_opt_level_zero():
    ctx, expr, out, tensors = _spmv_setup()
    k = compile_kernel(
        expr, ctx, tensors, out, backend="python", opt_level=0, name="vec_off"
    )
    assert "_vlo" not in k.source
    k2 = compile_kernel(
        expr, ctx, tensors, out, backend="python", opt_level=0, vectorize=True,
        name="vec_forced",
    )
    # explicit opt-in overrides the default coupling
    assert "_vlo" in k2.source
    assert np.array_equal(k.run(tensors).vals, k2.run(tensors).vals)
