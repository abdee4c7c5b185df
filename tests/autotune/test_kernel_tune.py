"""The build-path integration: ``KernelBuilder(tune=...)``,
``compile_kernel(tune="auto")``, and the ``REPRO_TUNE`` environment
routing — tuning reconfigures the build, never changes the answer,
and never turns a buildable kernel into an error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import kernel as kernel_mod
from repro.compiler.kernel import KernelBuilder, OutputSpec, compile_kernel
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

N = 32


def _spmv():
    A = sparse_matrix(N, N, 0.25, attrs=("i", "j"), seed=31)
    x = dense_vector(N, attr="j", seed=32)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (N,))
    return ctx, expr, out, {"A": A, "x": x}


def test_builder_tune_auto_stamps_decision_and_matches_untuned():
    ctx, expr, out, tensors = _spmv()
    # distinct kernel names: a tuned build that lands on the default
    # knobs shares the untuned build's cache key, and the tune stamp
    # reflects the *latest* build of a memoized kernel
    plain = KernelBuilder(ctx, FLOAT).build(expr, tensors, out, name="kt_a")
    assert plain.tune_decision is None
    tuned = KernelBuilder(ctx, FLOAT, tune="auto").build(
        expr, tensors, out, name="kt_a2")
    assert tuned.tune_decision is not None
    assert tuned.tune_decision.decision.search in ("linear", "binary")
    np.testing.assert_allclose(
        np.asarray(tuned.run(tensors).vals),
        np.asarray(plain.run(tensors).vals),
    )


def test_compile_kernel_tune_auto():
    ctx, expr, out, tensors = _spmv()
    kernel = compile_kernel(expr, ctx, tensors, out, tune="auto",
                            name="kt_b")
    assert kernel.tune_decision is not None
    reference = compile_kernel(expr, ctx, tensors, out, name="kt_b2")
    np.testing.assert_allclose(
        np.asarray(kernel.run(tensors).vals),
        np.asarray(reference.run(tensors).vals),
    )


def test_env_routing(monkeypatch):
    ctx, expr, out, tensors = _spmv()
    builder = KernelBuilder(ctx, FLOAT)  # tune=None defers to REPRO_TUNE
    monkeypatch.setenv("REPRO_TUNE", "auto")
    tuned = builder.build(expr, tensors, out, name="kt_c")
    assert tuned.tune_decision is not None
    monkeypatch.setenv("REPRO_TUNE", "off")
    untuned = builder.build(expr, tensors, out, name="kt_c")
    assert untuned.tune_decision is None
    # unset means off: tuning is strictly opt-in for library builds
    monkeypatch.delenv("REPRO_TUNE")
    assert builder.build(expr, tensors, out,
                         name="kt_c").tune_decision is None


def test_call_site_tune_overrides_builder_mode():
    ctx, expr, out, tensors = _spmv()
    builder = KernelBuilder(ctx, FLOAT, tune="auto")
    assert builder.build(expr, tensors, out, name="kt_d",
                         tune="off").tune_decision is None
    assert builder.build(expr, tensors, out, name="kt_d",
                         tune="auto").tune_decision is not None


def test_invalid_tune_mode_rejected():
    ctx, _, _, _ = _spmv()
    with pytest.raises(ValueError, match="tune"):
        KernelBuilder(ctx, FLOAT, tune="aggressive")


def test_tuner_failure_falls_back_to_untuned_build(monkeypatch, caplog):
    import repro.autotune as autotune_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic tuner crash")

    monkeypatch.setattr(autotune_mod, "tune_build", boom)
    ctx, expr, out, tensors = _spmv()
    kernel = KernelBuilder(ctx, FLOAT, tune="auto").build(
        expr, tensors, out, name="kt_e")
    assert kernel.tune_decision is None  # built untuned, not an error
    reference = compile_kernel(expr, ctx, tensors, out, name="kt_e2")
    np.testing.assert_allclose(
        np.asarray(kernel.run(tensors).vals),
        np.asarray(reference.run(tensors).vals),
    )


def test_explicit_parallel_settings_win_over_tuned_executor():
    ctx, expr, out, tensors = _spmv()
    builder = KernelBuilder(ctx, FLOAT, tune="auto", parallel="thread",
                            workers=2)
    clone = builder._tuned_clone(expr, tensors, out, "kt_f", None)
    assert clone is not None
    assert clone.parallel == "thread"
    assert clone.workers == 2


def test_function_inputs_skip_tuning():
    # no concrete tensor statistics -> nothing to model -> untuned
    from repro.compiler import Op, TFLOAT, TINT
    from repro.compiler.formats import FunctionInput
    from repro.compiler.scalars import scalar_ops_for

    ctx, expr, out, tensors = _spmv()
    ops = scalar_ops_for(FLOAT)
    one = Op("one", (TINT,), TFLOAT, spec=lambda j: 1.0,
             c_expr=lambda j: "1.0")
    inputs = dict(tensors)
    inputs["x"] = FunctionInput("x", ("j",), one, ops)
    builder = KernelBuilder(ctx, FLOAT, tune="auto")
    assert builder._tuned_clone(expr, inputs, out, "kt_g", None) is None


def test_tuned_and_untuned_builds_do_not_collide_in_the_cache():
    ctx, expr, out, tensors = _spmv()
    builder = KernelBuilder(ctx, FLOAT)
    key_off = builder.cache_key(expr, tensors, out, name="kt_h")
    key_auto = KernelBuilder(ctx, FLOAT, tune="auto").cache_key(
        expr, tensors, out, name="kt_h")
    decision = kernel_mod  # noqa: F841  (readability anchor)
    # the keys agree exactly when the tuner picked the default knobs;
    # either way a tuned build() must be servable from the cache the
    # prepare() key points at
    tuned = KernelBuilder(ctx, FLOAT, tune="auto").build(
        expr, tensors, out, name="kt_h")
    assert key_auto is not None and key_off is not None
    assert kernel_mod.kernel_cache.lookup(key_auto) is not None
    d = tuned.tune_decision.decision
    if d.search == "linear":
        assert key_auto == key_off
    else:
        assert key_auto != key_off
