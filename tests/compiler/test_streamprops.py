"""The static stream-property analysis: transfer rules, blame, and the
builder gate (PR 8)."""

import pytest

from repro.compiler.analysis.streamprops import (
    analyze_expr,
    analyze_stream,
    infer_expr,
    verify_expr,
    verify_stream,
)
from repro.compiler.formats import FunctionInput, TensorInput
from repro.compiler.ir import Op, TFLOAT, TINT
from repro.compiler.build import KernelBuilder
from repro.compiler.kernel import OutputSpec
from repro.compiler.scalars import scalar_ops_for
from repro.errors import StreamPropertyError
from repro.krelation.schema import Schema
from repro.lang.ast import Sum, Var
from repro.lang.typing import TypeContext
from repro.semirings import FLOAT, MIN_PLUS
from repro.streams.combinators import ContractStream, MulStream
from repro.streams.sources import SparseStream

N = 8


def _spmv():
    ctx = TypeContext(
        Schema.of(i=range(N), j=range(N)), {"A": {"i", "j"}, "x": {"j"}}
    )
    ops = scalar_ops_for(FLOAT)
    specs = {
        "A": TensorInput("A", ("i", "j"), ("dense", "sparse"), ops),
        "x": TensorInput("x", ("j",), ("dense",), ops),
    }
    return Sum("j", Var("A") * Var("x")), ctx, specs


def _square_op():
    return Op(
        "sqf", (TINT,), TFLOAT,
        spec=lambda i: float(i * i),
        c_expr=lambda i: f"((double)(({i}) * ({i})))",
    )


class TestExprInference:
    def test_spmv_fully_certified(self):
        expr, ctx, specs = _spmv()
        sig, findings = analyze_expr(expr, ctx, specs, FLOAT)
        assert findings == []
        assert sig.lawful and sig.monotone and sig.strict and sig.bounded

    def test_matmul_certified(self):
        ctx = TypeContext(
            Schema.of(i=range(N), k=range(N), j=range(N)),
            {"A": {"i", "k"}, "B": {"k", "j"}},
        )
        ops = scalar_ops_for(FLOAT)
        specs = {
            "A": TensorInput("A", ("i", "k"), ("dense", "sparse"), ops),
            "B": TensorInput("B", ("k", "j"), ("dense", "sparse"), ops),
        }
        sig = verify_expr(Sum("k", Var("A") * Var("B")), ctx, specs, FLOAT)
        assert sig.lawful and sig.bounded

    def test_unbounded_contraction_blamed(self):
        """Σ over an unbounded FunctionInput level is a termination bug,
        and the blame names the Σ node."""
        ops = scalar_ops_for(FLOAT)
        g = FunctionInput("g", ("i",), _square_op(), ops, (None,))
        ctx = TypeContext(Schema.of(i=None), {"g": {"i"}})
        sig, findings = analyze_expr(Sum("i", Var("g")), ctx, {"g": g}, FLOAT)
        assert not sig.lawful or findings
        assert len(findings) == 1
        b = findings[0]
        assert b.rule == "sum-bounded"
        assert b.node == "Σ_i"
        assert b.prop == "terminating"
        assert "Σ_i" in b.path

    def test_bounded_function_input_certified(self):
        """dims bound the function level: the same Σ is terminating."""
        ops = scalar_ops_for(FLOAT)
        g = FunctionInput("g", ("i",), _square_op(), ops, (N,))
        ctx = TypeContext(Schema.of(i=range(N)), {"g": {"i"}})
        sig, findings = analyze_expr(Sum("i", Var("g")), ctx, {"g": g}, FLOAT)
        assert findings == []
        assert sig.bounded

    def test_mul_erases_unbounded_support(self):
        """An unbounded predicate multiplied by finite data is finite —
        the intersection rule (support ∩) must erase the open level."""
        ops = scalar_ops_for(FLOAT)
        g = FunctionInput("g", ("i",), _square_op(), ops, (None,))
        ctx = TypeContext(Schema.of(i=None), {"g": {"i"}, "x": {"i"}})
        specs = {
            "g": g,
            "x": TensorInput("x", ("i",), ("sparse",), ops),
        }
        sig, findings = analyze_expr(
            Sum("i", Var("g") * Var("x")), ctx, specs, FLOAT
        )
        assert findings == []
        assert sig.bounded

    def test_signature_unbounded_without_specs_sum(self):
        """Without specs the analysis still runs (vars are axioms)."""
        ctx = TypeContext(Schema.of(i=range(N)), {"x": {"i"}})
        sig = infer_expr(Sum("i", Var("x")), ctx)
        assert sig.lawful and sig.bounded


class TestBuilderGate:
    def _diverging(self):
        ops = scalar_ops_for(FLOAT)
        g = FunctionInput("g", ("i",), _square_op(), ops, (None,))
        ctx = TypeContext(Schema.of(i=None), {"g": {"i"}})
        return Sum("i", Var("g")), ctx, {"g": g}

    def test_prepare_rejects_unbounded_contraction(self):
        expr, ctx, inputs = self._diverging()
        builder = KernelBuilder(ctx, FLOAT, backend="interp", cache=False)
        with pytest.raises(StreamPropertyError) as ei:
            builder.prepare(expr, inputs, None, name="diverge")
        assert ei.value.kernel == "diverge"
        diag = ei.value.diagnostic()
        assert diag["type"] == "StreamPropertyError"
        assert diag["findings"][0]["node"] == "Σ_i"
        assert diag["findings"][0]["rule"] == "sum-bounded"

    def test_param_gate_off(self):
        expr, ctx, inputs = self._diverging()
        builder = KernelBuilder(
            ctx, FLOAT, backend="interp", cache=False, stream_verify=False
        )
        specs, dims, key = builder.prepare(expr, inputs, None, name="diverge")
        assert "g" in specs

    def test_env_gate_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_VERIFY", "0")
        expr, ctx, inputs = self._diverging()
        builder = KernelBuilder(ctx, FLOAT, backend="interp", cache=False)
        builder.prepare(expr, inputs, None, name="diverge")

    def test_clean_pipeline_builds(self):
        expr, ctx, specs = _spmv()
        builder = KernelBuilder(ctx, FLOAT, backend="interp", cache=False)
        out = OutputSpec(("i",), ("dense",), (N,))
        prepared, dims, key = builder.prepare(expr, specs, out, name="spmv_ok")
        assert dims == {"i": N}


class TestStreamInference:
    def test_sparse_source_is_axiom(self):
        s = SparseStream("i", [0, 2, 5], [1.0, 2.0, 3.0], FLOAT)
        sig, findings = analyze_stream(s)
        assert findings == []
        assert sig.lawful and sig.strict and sig.bounded

    def test_declared_nonmonotone_blamed(self):
        class Backwards(SparseStream):
            static_properties = {
                "lawful": False, "monotone": False, "strict": False,
            }

        s = Backwards("i", [0, 2, 5], [1.0, 2.0, 3.0], FLOAT)
        with pytest.raises(StreamPropertyError) as ei:
            verify_stream(s)
        (b,) = ei.value.findings
        assert b.node == "Backwards"
        assert b.rule == "declared"

    def test_contract_over_nonstrict_needs_idempotence(self):
        class Dup(SparseStream):
            static_properties = {
                "lawful": True, "monotone": True, "strict": False,
            }

        inner = Dup("i", [0, 2, 5], [1.0, 2.0, 3.0], FLOAT)
        sig, findings = analyze_stream(ContractStream(inner), FLOAT)
        assert len(findings) == 1
        assert findings[0].rule == "semiring-law:idempotent-add"
        # the tropical semiring discharges the obligation
        inner_mp = Dup("i", [0, 2, 5], [1.0, 2.0, 3.0], MIN_PLUS)
        sig, findings = analyze_stream(ContractStream(inner_mp), MIN_PLUS)
        assert findings == []

    def test_mul_of_nonstrict_blamed(self):
        class Dup(SparseStream):
            static_properties = {
                "lawful": True, "monotone": True, "strict": False,
            }

        a = Dup("i", [0, 2], [1.0, 2.0], FLOAT)
        b = SparseStream("i", [0, 2], [1.0, 2.0], FLOAT)
        sig, findings = analyze_stream(MulStream(a, b), FLOAT)
        assert any(f.rule == "mul-strict" for f in findings)
        assert not sig.lawful

    def test_unknown_class_blamed(self):
        from repro.streams.base import Stream

        class Mystery(Stream):
            __slots__ = ()

        s = Mystery("i", ("i",), FLOAT)
        sig, findings = analyze_stream(s, FLOAT)
        assert len(findings) == 1
        assert findings[0].rule == "unknown-source"
        assert findings[0].node == "Mystery"
        assert not sig.lawful


class TestMemoization:
    def test_warm_prepare_skips_verification(self, tmp_path, monkeypatch):
        """With the cache on, a second prepare of the same kernel must
        not re-run the analysis (the key is memoized process-locally)."""
        import repro.compiler.analysis.streamprops as sp
        import repro.compiler.build as build_mod

        calls = {"n": 0}
        real = sp.verify_expr

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(build_mod, "verify_expr", counting)
        expr, ctx, specs = _spmv()
        builder = KernelBuilder(ctx, FLOAT, backend="interp", cache=True)
        out = OutputSpec(("i",), ("dense",), (N,))
        builder.prepare(expr, specs, out, name="memo_spmv")
        first = calls["n"]
        builder.prepare(expr, specs, out, name="memo_spmv")
        assert calls["n"] == first  # second prepare hit the memo


class TestLintCommand:
    """``python -m repro.lint``, the one analysis command: every
    pipeline and example kernel of its registry, reported once."""

    @staticmethod
    def _header(target):
        from repro.lint import KernelTarget

        if isinstance(target, KernelTarget):
            return f"== kernel {target.name!r} "
        return f"{target.name:<18} ["

    @pytest.mark.parametrize("argv", [[], ["--selftest"]])
    def test_every_target_is_reported_once(self, capsys, argv):
        from repro.lint import TARGETS, main

        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [t.name for t in TARGETS]
        assert len(set(names)) == len(names) == 16
        for t in TARGETS:
            header = self._header(t)
            assert sum(ln.startswith(header) for ln in lines) == 1, t.name
        assert f"{len(TARGETS)} target(s) checked, 0 finding(s)" in lines
        if argv:
            assert lines[-1] == "selftest: both rejection paths caught with blame"

    def test_list_names_every_target(self, capsys):
        from repro.lint import TARGETS, main

        assert main(["--list"]) == 0
        listed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()]
        assert listed == [t.name for t in TARGETS]
