"""REPRO_SANITIZE wiring: env parsing, the checked Python backend,
sanitizer build flags, and cache-key separation."""

import numpy as np
import pytest

from repro import config
from repro.compiler import codegen_c
from repro.compiler.cache import kernel_cache_key
from repro.compiler.codegen_py import PyKernel, _CheckedArray, emit_kernel_source
from repro.compiler.formats import Param
from repro.compiler.ir import (
    EBinop,
    ELit,
    EVar,
    PAssign,
    PSeq,
    PStore,
    PWhile,
    TBOOL,
    TFLOAT,
    TINT,
    ilit,
)
from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT

V = EVar


# ------------------------------------------------------------ env parse
class TestSanitizeModes:
    def test_default_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert config.get("REPRO_SANITIZE") == ()

    def test_single(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "address")
        assert config.get("REPRO_SANITIZE") == ("address",)

    def test_both_sorted_and_deduped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "undefined,address,address")
        assert config.get("REPRO_SANITIZE") == ("address", "undefined")

    def test_unknown_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "address,tsan")
        assert config.get("REPRO_SANITIZE") == ("address",)


# -------------------------------------------------------- checked array
class TestCheckedArray:
    def arr(self, n=4):
        return _CheckedArray("k", "a", np.zeros(n))

    def test_in_bounds_roundtrip(self):
        a = self.arr()
        a[2] = 5.0
        assert a[2] == 5.0
        assert len(a) == 4

    def test_oob_read_raises(self):
        with pytest.raises(IndexError, match="out-of-bounds"):
            self.arr()[7]

    def test_oob_write_raises(self):
        a = self.arr()
        with pytest.raises(IndexError, match="out-of-bounds"):
            a[4] = 1.0

    def test_negative_index_raises(self):
        with pytest.raises(IndexError):
            self.arr()[-1]

    def test_oob_slice_raises(self):
        with pytest.raises(IndexError):
            self.arr()[2:9]


# ------------------------------------------------- checked kernel source
def _store_kernel(checked):
    params = [Param("a", "array", TFLOAT), Param("i", "scalar", TINT)]
    body = PStore("a", V("i"), ELit(1.0, TFLOAT))
    return PyKernel("probe", params, [], body, checked=checked)


class TestCheckedBackend:
    def test_checked_source_wraps_arrays(self):
        params = [Param("a", "array", TFLOAT), Param("n", "scalar", TINT)]
        src = emit_kernel_source("probe", params, [], PSeq(), checked=True)
        assert "_chk('probe', 'a', a)" in src
        assert "'n'" not in src  # scalars are not wrapped

    def test_checked_kernel_catches_oob_store(self):
        k = _store_kernel(checked=True)
        with pytest.raises(IndexError, match="out-of-bounds"):
            k({"a": np.zeros(3), "i": 5})

    def test_checked_kernel_in_bounds_ok(self):
        k = _store_kernel(checked=True)
        env = {"a": np.zeros(3), "i": 1}
        k(env)
        assert env["a"][1] == 1.0

    def test_unchecked_numpy_semantics_unchanged(self):
        # numpy itself raises on a scalar OOB store; the checked mode's
        # value-add is the kernel/array-named message and slice checks
        k = _store_kernel(checked=False)
        env = {"a": np.zeros(3), "i": 1}
        k(env)
        assert env["a"][1] == 1.0

    def test_sanitize_env_builds_checked_python_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "address")
        n = 4
        schema = Schema.of(i=range(n), j=range(n))
        ctx = TypeContext(schema, {"A": {"i", "j"}, "v": {"j"}})
        A = Tensor.from_entries(
            ("i", "j"), ("dense", "sparse"), (n, n),
            {(i, j): 1.0 for i in range(n) for j in range(n) if (i + j) % 2},
            FLOAT,
        )
        v = Tensor.from_entries(
            ("j",), ("dense",), (n,), {(j,): float(j) for j in range(n)}, FLOAT
        )
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("v")), ctx, {"A": A, "v": v},
            OutputSpec(("i",), ("dense",), (n,)),
            backend="python", cache=False, name="san_spmv",
        )
        assert "_chk(" in kernel.source
        out = kernel.run({"A": A, "v": v})
        dense = np.zeros((n, n))
        for (i, j), val in A.to_dict().items():
            dense[i, j] = val
        vv = np.arange(n, dtype=float)
        assert np.allclose(np.asarray(out.vals), dense @ vv)


# --------------------------------------------------------- build wiring
class TestBuildWiring:
    def test_c_flags_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert codegen_c._sanitizer_flags() == []

    def test_c_flags_address_undefined(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "address,undefined")
        flags = codegen_c._sanitizer_flags()
        assert "-fsanitize=address" in flags
        assert "-fsanitize=undefined" in flags

    def test_cache_key_separates_sanitized_builds(self):
        kw = dict(
            semiring=FLOAT, backend="python", search="linear", locate=True,
            opt_level=2, vectorize=False, name="k",
        )
        plain = kernel_cache_key("expr", {}, None, **kw)
        sanitized = kernel_cache_key("expr", {}, None, sanitize=("address",), **kw)
        assert plain != sanitized

    def test_checked_mode_disables_vectorizer(self):
        # a vectorizable dense loop still emits scalar subscripts when
        # checked, so every access goes through the proxy
        params = [Param("a", "array", TFLOAT), Param("n", "scalar", TINT)]
        body = PWhile(
            EBinop("<", V("i"), V("n"), TBOOL),
            PSeq(
                PStore("a", V("i"), ELit(0.0, TFLOAT)),
                PAssign(V("i"), EBinop("+", V("i"), ilit(1), TINT)),
            ),
        )
        decls = [V("i")]
        vec = emit_kernel_source("probe", params, decls, body, vectorize=True)
        chk = emit_kernel_source("probe", params, decls, body,
                                 vectorize=True, checked=True)
        assert "_chk(" in chk
        assert "while " in chk  # the scalar loop survives
