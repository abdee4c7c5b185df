"""Fault-injection suite: every failure mode must end in a typed
:class:`~repro.errors.ReproError` subclass or a *logged*, numerically
correct fallback — never a wrong answer, a silent downgrade, or a hang.

Covered modes:

1. missing gcc                 → ``BackendUnavailableError`` / logged Python fallback
2. gcc timeout                 → ``CompileError(timeout=True)`` / logged fallback
3. gcc failure                 → ``CompileError`` carrying captured stderr
4. transient gcc crash         → one retry, then success
5. corrupted JSON payload      → quarantine + logged rebuild
6. tampered payload (checksum) → quarantine + logged rebuild
7. truncated ``.so``           → quarantine + logged recompile
8. unusable cache dir          → logged temp-dir fallback
9. undersized sparse output    → ``CapacityError`` / logged auto-growth
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np
import pytest

from repro.compiler import resilience
from repro.compiler.kernel import compile_kernel
from repro.errors import (
    BackendUnavailableError,
    CapacityError,
    CompileError,
    ReproError,
)
from tests.faults.conftest import (
    copy_problem,
    expected_spmv,
    repro_records,
    requires_gcc,
    requires_toolchain,
    spmv_problem,
)


def _build_spmv(backend="c", name="fault_k", **kw):
    ctx, expr, out, tensors = spmv_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend=backend, name=name, **kw)
    return kernel, tensors


# ----------------------------------------------------------------------
# 1. missing toolchain
# ----------------------------------------------------------------------
def test_missing_gcc_typed_error_when_fallback_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_GCC", "/nonexistent/bin/gcc")
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "0")
    resilience.reset_probe_cache()
    with pytest.raises(BackendUnavailableError) as ei:
        _build_spmv(name="nogcc_strict")
    assert ei.value.backend == "c"
    assert isinstance(ei.value, ReproError)


def test_missing_gcc_falls_back_to_python_with_log(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_GCC", "/nonexistent/bin/gcc")
    resilience.reset_probe_cache()
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(name="nogcc_fb")
        result = kernel.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert "def nogcc_fb" in kernel.source  # Python source, not C
    fallbacks = [r for r in repro_records(caplog) if "falling back" in r.message]
    assert fallbacks, "the backend downgrade must be logged, never silent"


# ----------------------------------------------------------------------
# 2. toolchain timeout
# ----------------------------------------------------------------------
def test_gcc_timeout_typed_error(monkeypatch, fake_gcc):
    fake_gcc("sleep 10")
    monkeypatch.setenv("REPRO_GCC_TIMEOUT", "0.3")
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "0")
    with pytest.raises(CompileError) as ei:
        _build_spmv(name="slowgcc_strict")
    assert ei.value.timeout
    assert "timed out" in str(ei.value)


def test_gcc_timeout_falls_back_with_log(monkeypatch, fake_gcc, caplog):
    fake_gcc("sleep 10")
    monkeypatch.setenv("REPRO_GCC_TIMEOUT", "0.3")
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(name="slowgcc_fb")
        result = kernel.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("falling back" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 3. toolchain failure: stderr must surface in the typed error
# ----------------------------------------------------------------------
def test_gcc_failure_carries_stderr(monkeypatch, fake_gcc):
    fake_gcc('echo "fake-gcc: catastrophic internal error" 1>&2; exit 1')
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "0")
    with pytest.raises(CompileError) as ei:
        _build_spmv(name="badgcc")
    assert ei.value.returncode == 1
    assert "catastrophic internal error" in (ei.value.stderr or "")
    assert "catastrophic internal error" in str(ei.value)


# ----------------------------------------------------------------------
# 4. transient crash (killed by signal): retried once, then succeeds
# ----------------------------------------------------------------------
@requires_gcc
def test_transient_gcc_crash_retried(monkeypatch, tmp_path, fake_gcc, caplog):
    marker = tmp_path / "crashed_once"
    fake_gcc(
        f'if [ ! -e "{marker}" ]; then touch "{marker}"; kill -9 $$; fi\n'
        'exec gcc "$@"'
    )
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "0")
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(name="flakygcc")
        result = kernel.run(tensors)
    assert marker.exists()
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("transient" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 4b. deterministic kill (same signal twice): one retry, then an
#     actionable error — never a retry storm
# ----------------------------------------------------------------------
def test_repeated_sigkill_stops_after_one_retry(monkeypatch, tmp_path, fake_gcc):
    attempts = tmp_path / "attempts"
    fake_gcc(
        f'echo x >> "{attempts}"\n'
        'kill -9 $$'
    )
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "0")
    with pytest.raises(CompileError) as err:
        _build_spmv(name="oomedgcc")
    # exactly two invocations: the first kill earns one retry, the
    # second (same signal) is deterministic and stops the loop
    assert attempts.read_text().count("x") == 2
    assert err.value.signal == 9
    assert err.value.signal_name == "SIGKILL"
    assert "twice in a row" in str(err.value)
    assert "OOM killer" in str(err.value)  # the actionable hint


def test_repeated_sigkill_falls_back_to_python(monkeypatch, tmp_path, fake_gcc, caplog):
    attempts = tmp_path / "attempts"
    fake_gcc(
        f'echo x >> "{attempts}"\n'
        'kill -9 $$'
    )
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "1")
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(name="oomedgcc_fb")
        result = kernel.run(tensors)
    assert attempts.read_text().count("x") == 2
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("falling back" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 5. corrupted JSON payload on disk
# ----------------------------------------------------------------------
def test_corrupted_payload_quarantined_and_rebuilt(cache_dir, caplog):
    kernel, tensors = _build_spmv(backend="python", name="corrupt_json")
    [payload] = list(cache_dir.glob("kmeta_*.json"))
    payload.write_bytes(b"\x00garbage{{{not json")

    from repro.compiler import kernel as kernel_mod
    from repro.compiler.cache import KernelCache

    kc2 = KernelCache(cache_dir=cache_dir)  # fresh process simulation
    kernel_mod.kernel_cache = kc2
    with caplog.at_level(logging.WARNING, logger="repro"):
        k2, _ = _build_spmv(backend="python", name="corrupt_json")
        result = k2.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert list(cache_dir.glob("kmeta_*.json.corrupt")), "bad entry quarantined"
    assert any("corrupt" in r.message.lower() for r in repro_records(caplog))
    assert kc2.stats.disk_hits == 0 and kc2.stats.misses == 1


# ----------------------------------------------------------------------
# 6. tampered payload: the checksum must catch a bit-flip in the source
# ----------------------------------------------------------------------
def test_tampered_payload_fails_checksum(cache_dir, caplog):
    kernel, tensors = _build_spmv(backend="python", name="tampered")
    [payload_file] = list(cache_dir.glob("kmeta_*.json"))
    record = json.loads(payload_file.read_text())
    record["payload"]["source"] = "raise RuntimeError('pwned')"
    payload_file.write_text(json.dumps(record))  # checksum now stale

    from repro.compiler import kernel as kernel_mod
    from repro.compiler.cache import KernelCache

    kernel_mod.kernel_cache = KernelCache(cache_dir=cache_dir)
    with caplog.at_level(logging.WARNING, logger="repro"):
        k2, _ = _build_spmv(backend="python", name="tampered")
        result = k2.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("checksum" in r.message for r in repro_records(caplog))
    assert list(cache_dir.glob("kmeta_*.json.corrupt"))


# ----------------------------------------------------------------------
# 7. truncated shared object
# ----------------------------------------------------------------------
@requires_toolchain
def test_truncated_so_quarantined_and_recompiled(cache_dir, caplog):
    """A half-written ``.so`` (crashed writer, fresh process reading it)
    is quarantined and recompiled.  The truncated file is planted at the
    exact path ``_build`` will load — it must never have been dlopen'd
    by this process, since glibc dedups loads by path."""
    import ctypes
    import hashlib

    from repro.compiler import codegen_c

    source = (
        "#include <stdint.h>\n"
        "int64_t trunc_probe(void) { return 4242; }\n"
    )
    key = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache_dir.mkdir(parents=True, exist_ok=True)
    so_path = cache_dir / f"trunc_probe_{key}.so"
    so_path.write_bytes(b"\x7fELF truncated by a crashed writer")

    with caplog.at_level(logging.WARNING, logger="repro"):
        lib = codegen_c._build(source, "trunc_probe")
    fn = lib.trunc_probe
    fn.restype = ctypes.c_int64
    assert fn() == 4242
    assert list(cache_dir.glob("trunc_probe_*.so.corrupt"))
    assert any("failed to load" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 8. unusable cache directory
# ----------------------------------------------------------------------
@requires_gcc
def test_unusable_cache_dir_falls_back_to_tempdir(tmp_path, monkeypatch, caplog):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory should be")
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(blocker / "sub"))
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(name="rodir")
        result = kernel.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("unusable" in r.message for r in repro_records(caplog))


def test_unusable_cache_dir_payload_store_is_logged(tmp_path, monkeypatch, caplog):
    """The JSON tier skips an unwritable directory — loudly, not silently."""
    blocker = tmp_path / "blocker2"
    blocker.write_text("still a file")
    from repro.compiler import kernel as kernel_mod
    from repro.compiler.cache import KernelCache

    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(blocker / "sub"))
    kernel_mod.kernel_cache = KernelCache()  # picks up the bad env dir
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(backend="python", name="rodir_py")
        result = kernel.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("could not store" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 9. undersized sparse output
# ----------------------------------------------------------------------
def test_undersized_output_typed_error():
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="under_k")
    nnz = len(tensors["A"].vals)
    with pytest.raises(CapacityError) as ei:
        kernel.run(tensors, capacity=1)
    assert ei.value.needed == nnz and ei.value.capacity == 1


def test_undersized_output_auto_grows_with_log(caplog):
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="grow_k")
    with caplog.at_level(logging.INFO, logger="repro"):
        # in-process: under supervision the growth retries (and their
        # log records) happen in the child, invisible to caplog
        result = kernel.run(tensors, capacity=1, auto_grow=True,
                            supervised=False)
    A = tensors["A"]
    assert np.allclose(np.asarray(result.vals), np.asarray(A.vals))
    assert np.array_equal(np.asarray(result.crd[1]), np.asarray(A.crd[1]))
    grows = [r for r in repro_records(caplog) if "retrying with capacity" in r.message]
    assert grows, "capacity auto-growth must be logged"


def test_auto_grow_respects_bound():
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="bound_k")
    with pytest.raises(CapacityError) as ei:
        kernel.run(tensors, capacity=1, auto_grow=True, max_capacity=2)
    assert "auto-grow bound" in str(ei.value)


def test_auto_grow_env_bound(monkeypatch):
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="envb_k")
    monkeypatch.setenv("REPRO_MAX_CAPACITY", "2")
    with pytest.raises(CapacityError):
        kernel.run(tensors, capacity=1, auto_grow=True)
    monkeypatch.delenv("REPRO_MAX_CAPACITY")
    result = kernel.run(tensors, capacity=1, auto_grow=True)
    assert np.allclose(np.asarray(result.vals), np.asarray(tensors["A"].vals))
