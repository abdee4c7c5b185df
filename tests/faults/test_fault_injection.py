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
9. undersized sparse output    → one logged rerun at the counted size, on
                                 every route; an overflowed rerun is a
                                 ``CapacityError``
10. a supervised kernel dying  → the typed error or the Python twin's
                                 result on every supervised route, each
                                 death booked once by the breaker
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np
import pytest

from repro.compiler import resilience
from repro.compiler.build import compile_kernel
from repro.errors import (
    BackendUnavailableError,
    CapacityError,
    CompileError,
    KernelCrashError,
    KernelTimeoutError,
    ReproError,
)
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, breaker
from repro.runtime.pool import run_supervised
from tests.conftest import bench_kernel
from tests.faults.conftest import (
    copy_problem,
    expected_spmv,
    repro_records,
    requires_gcc,
    requires_toolchain,
    spmv_problem,
)
from tests.faults.crash_kernels import (
    OverrunKernel,
    SegfaultKernel,
    SpinKernel,
    sabotage_in_workers,
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


@pytest.mark.parametrize("cell, gcc", [
    ("spmv", "missing"), ("smul", "missing"), ("spmv", "failing"), ("smul", "failing"),
], ids=["spmv", "smul", "spmv-failing", "smul-failing"])
def test_fallback_keeps_the_python_pipeline(monkeypatch, fake_gcc, cell, gcc):
    """A C build that falls back emits what a direct Python build does:
    the body is optimised again for Python, LICM and CSE included —
    in the build when gcc is missing, at the join when it fails.  So is
    the breaker's twin, rebuilt from the recipe on Python."""
    from repro.runtime.route import fallback_kernel

    if gcc == "missing":
        monkeypatch.setenv("REPRO_GCC", "/nonexistent/bin/gcc")
        resilience.reset_probe_cache()
    else:
        fake_gcc("exit 1")
    monkeypatch.setenv("REPRO_BACKEND_FALLBACK", "1")
    fallback = bench_kernel(cell, f"fb_{cell}", backend="c")
    direct = bench_kernel(cell, f"fb_{cell}", backend="python")
    assert fallback.source == direct.source
    assert "_tinv" in fallback.source
    assert "_tinv" in fallback_kernel(fallback).source


@requires_gcc
def test_pool_forked_while_a_build_is_in_flight(fake_gcc):
    """Forking joins every gcc in flight first: the worker inherits a
    published build, loads it, and returns the right answer."""
    import shutil

    from repro.compiler import codegen_c
    from repro.runtime import pool as pool_mod

    fake_gcc(f'sleep 1; exec "{shutil.which("gcc")}" "$@"')
    kernel, tensors = _build_spmv(name="fork_in_flight")
    assert any(not gcc.done for gcc in codegen_c._in_flight.values())
    pool_mod.get_shared_pool(1)             # forks its worker now
    assert all(gcc.done for gcc in codegen_c._in_flight.values())
    result = run_supervised(kernel, tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert kernel.c_backed


@requires_gcc
def test_pool_forked_before_a_build_runs_it_supervised(fake_gcc, caplog):
    """A pool whose worker is forked before the build: the supervised
    call joins the build before the kernel crosses, so the worker loads
    the published .so at once — no wait on the lock for gcc, no
    deadline passing, no failure booked."""
    import shutil
    import time

    from repro.runtime import pool as pool_mod

    pool_mod.get_shared_pool(1)             # forks its worker now
    fake_gcc(f'sleep 1; exec "{shutil.which("gcc")}" "$@"')
    kernel, tensors = _build_spmv(name="pool_before_build")
    t0 = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="repro"):
        result = run_supervised(kernel, tensors, deadline=20.0)
    assert time.monotonic() - t0 < 10.0
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert kernel.c_backed
    assert not repro_records(caplog)
    assert breaker.snapshot().get(kernel.cache_key, {}).get("failures", 0) == 0


# ----------------------------------------------------------------------
# 5. corrupted JSON payload on disk
# ----------------------------------------------------------------------
def test_corrupted_payload_quarantined_and_rebuilt(cache_dir, caplog):
    kernel, tensors = _build_spmv(backend="python", name="corrupt_json")
    [payload] = list(cache_dir.glob("kmeta_*.json"))
    payload.write_bytes(b"\x00garbage{{{not json")

    from repro.compiler import build as build_mod
    from repro.compiler.cache import KernelCache

    kc2 = KernelCache(cache_dir=cache_dir)  # fresh process simulation
    build_mod.kernel_cache = kc2
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

    from repro.compiler import build as build_mod
    from repro.compiler.cache import KernelCache

    build_mod.kernel_cache = KernelCache(cache_dir=cache_dir)
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
    exact path the artifact will load — it must never have been dlopen'd
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
        lib = codegen_c._Artifact(source, "trunc_probe", None).load()
    fn = lib.trunc_probe
    fn.restype = ctypes.c_int64
    assert fn() == 4242
    assert list(cache_dir.glob("trunc_probe_*.so.corrupt"))
    assert any("failed to load" in r.message for r in repro_records(caplog))


@requires_toolchain
def test_corrupt_so_in_a_read_only_cache_is_rebuilt_once(cache_dir, tmp_path, monkeypatch,
                                                         gcc_runs):
    """A truncated ``.so`` that cannot be quarantined is rebuilt into
    the process's one scratch dir, and found there by the next load of
    the same kernel, after the first was collected: one gcc run, one
    scratch dir."""
    import gc
    import tempfile

    from repro.compiler import codegen_c

    source = "#include <stdint.h>\nint64_t ro_probe(void) { return 77; }\n"
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / f"ro_probe_{codegen_c._key(source)}.so").write_bytes(b"\x7fELF truncated")
    monkeypatch.setattr(resilience, "quarantine", lambda path: None)
    scratch_root = tmp_path / "tmp"
    scratch_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch_root))
    codegen_c._scratch_dir.cache_clear()
    try:
        for _ in range(2):
            lib = codegen_c._Artifact(source, "ro_probe", None).load()
            got = lib.ro_probe()
            del lib
            gc.collect()
            assert got == 77 and not codegen_c._CACHE
    finally:
        codegen_c._scratch_dir.cache_clear()
    assert len(gcc_runs) == 1
    assert [p.name[:8] for p in scratch_root.iterdir()] == ["repro_so"]


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
    from repro.compiler import build as build_mod
    from repro.compiler.cache import KernelCache

    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(blocker / "sub"))
    build_mod.kernel_cache = KernelCache()  # picks up the bad env dir
    with caplog.at_level(logging.WARNING, logger="repro"):
        kernel, tensors = _build_spmv(backend="python", name="rodir_py")
        result = kernel.run(tensors)
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("could not store" in r.message for r in repro_records(caplog))


# ----------------------------------------------------------------------
# 9. undersized sparse output
# ----------------------------------------------------------------------
def test_undersized_output_typed_error(monkeypatch):
    """A rerun that overflows again breaks the count-pass invariant: a
    typed error with both sizes, after exactly one rerun."""
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="under_k")
    allocations = []
    real = kernel._allocate_output

    def counted(env, capacity):
        allocations.append(capacity)
        real(env, capacity)

    monkeypatch.setattr(kernel, "_allocate_output", counted)
    monkeypatch.setattr(kernel, "_kernel", OverrunKernel())
    with pytest.raises(CapacityError) as ei:
        kernel.execute(tensors, capacity=1)
    assert allocations == [1, 2]
    assert ei.value.needed == 3 and ei.value.capacity == 2


def test_capacity_below_one_is_a_value_error():
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="cap0_k")
    for capacity in (0, -1):
        with pytest.raises(ValueError, match="capacity"):
            kernel.run(tensors, capacity=capacity)


def test_undersized_output_auto_grows_with_log(caplog):
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python", name="grow_k")
    nnz = len(tensors["A"].vals)
    with caplog.at_level(logging.INFO, logger="repro"):
        result = kernel.run(tensors, capacity=1, supervised=False)
    A = tensors["A"]
    assert np.allclose(np.asarray(result.vals), np.asarray(A.vals))
    assert np.array_equal(np.asarray(result.crd[1]), np.asarray(A.crd[1]))
    reruns = [r.getMessage() for r in repro_records(caplog)
              if "rerunning" in r.getMessage()]
    assert len(reruns) == 1 and f"needs {nnz} entries" in reruns[0]


#: every route a call can take, each at a reservation of one entry
UNDERSIZED_ROUTES = {
    "in_process": lambda k, t: k.run(t, capacity=1, parallel=False),
    "serial": lambda k, t: k.run_sharded(t, capacity=1, shards=3),
    "thread": lambda k, t: k.run_sharded(
        t, capacity=1, executor="thread", workers=2, shards=3),
    "pool": lambda k, t: k.run_sharded(
        t, capacity=1, executor="pool", workers=2, shards=3),
    "durable": lambda k, t: k.run_sharded(
        t, capacity=1, shards=3, durable=True),
    "supervised": lambda k, t: k.run(
        t, capacity=1, parallel=False, supervised=True),
}


@pytest.mark.parametrize("route", sorted(UNDERSIZED_ROUTES))
def test_undersized_output_reruns_on_every_route(route, tmp_path, monkeypatch):
    """Whichever route a call takes, an output reserved at one entry
    comes back equal to the default-capacity run, each execution having
    rerun at most once (in a worker, where the spy cannot count, the
    second overflow would raise instead)."""
    from repro.compiler.kernel import Kernel

    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))
    # each route is what its name says (the chaos CI job supervises all)
    monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python",
                            name=f"routes_k_{route}")
    want = kernel.execute(tensors).to_dict()
    capacities = []
    real = Kernel._allocate_output

    def counted(self, env, capacity):
        capacities.append(capacity)
        real(self, env, capacity)

    monkeypatch.setattr(Kernel, "_allocate_output", counted)
    assert UNDERSIZED_ROUTES[route](kernel, tensors).to_dict() == want
    runs, reruns = capacities.count(1), len(capacities) - capacities.count(1)
    assert reruns <= runs
    assert runs > 0 or route in ("pool", "supervised")


# ----------------------------------------------------------------------
# 10. a supervised kernel that dies, on every supervised route
# ----------------------------------------------------------------------
#: how the kernel dies in its pool worker: a segfault, a run past its
#: deadline, or a typed kernel error (an output past every reservation)
DEATHS = {
    "sigsegv": SegfaultKernel,
    "deadline": SpinKernel,
    "typed": OverrunKernel,
}
DEATH_ERRORS = {
    "sigsegv": KernelCrashError,
    "deadline": KernelTimeoutError,
    "typed": CapacityError,
}

#: the supervised routes; ``run_supervised`` calls the pool directly and
#: never consults the breaker
SUPERVISED_ROUTES = {
    "run": lambda k, t: k.run(t, parallel=False, supervised=True),
    "serial_shards": lambda k, t: k.run_sharded(
        t, executor="serial", shards=2, supervised=True),
    "pool_shards": lambda k, t: k.run_sharded(
        t, executor="pool", workers=2, shards=2, supervised=True),
    "run_supervised": lambda k, t: run_supervised(k, t),
}

#: (route, breaker state before, death) → (what the caller gets: the
#: twin's result or the typed error; breaker state, failures and probes
#: after).  Only the cells no other test pins; DESIGN.md "Supervised
#: execution & circuit breaker" has the whole table.  The breaker opens
#: at three deaths; a half-open breaker starts from three.
CRASH_TABLE = {
    ("run", "closed", "typed"): ("error", CLOSED, 0, 0),
    ("run", "half_open", "deadline"): ("twin", OPEN, 4, 1),
    ("run", "half_open", "typed"): ("error", HALF_OPEN, 3, 0),
    ("serial_shards", "closed", "deadline"): ("twin", CLOSED, 2, 0),
    ("serial_shards", "closed", "typed"): ("error", CLOSED, 0, 0),
    ("serial_shards", "open", "sigsegv"): ("twin", OPEN, 3, 0),
    ("serial_shards", "half_open", "sigsegv"): ("twin", OPEN, 4, 1),
    ("serial_shards", "half_open", "deadline"): ("twin", OPEN, 4, 1),
    ("serial_shards", "half_open", "typed"): ("error", HALF_OPEN, 3, 0),
    ("pool_shards", "closed", "sigsegv"): ("twin", CLOSED, 2, 0),
    ("pool_shards", "closed", "deadline"): ("twin", CLOSED, 2, 0),
    ("pool_shards", "closed", "typed"): ("error", CLOSED, 0, 0),
    ("pool_shards", "open", "sigsegv"): ("twin", OPEN, 3, 0),
    ("pool_shards", "half_open", "sigsegv"): ("twin", OPEN, 4, 1),
    ("pool_shards", "half_open", "deadline"): ("twin", OPEN, 4, 1),
    ("pool_shards", "half_open", "typed"): ("error", HALF_OPEN, 3, 0),
    ("run_supervised", "closed", "deadline"): ("error", CLOSED, 0, 0),
    ("run_supervised", "open", "sigsegv"): ("error", OPEN, 3, 0),
    ("run_supervised", "half_open", "sigsegv"): ("error", HALF_OPEN, 3, 0),
}


@pytest.mark.parametrize("route,state,death", sorted(CRASH_TABLE),
                         ids=["-".join(cell) for cell in sorted(CRASH_TABLE)])
def test_crash_table(route, state, death, monkeypatch):
    """A supervised kernel that dies gets a typed error or the
    pure-Python twin's result, and the breaker books it once."""
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
    monkeypatch.setenv("REPRO_KERNEL_DEADLINE", "0.3")
    monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
    ctx, expr, out, tensors = copy_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="python",
                            name=f"dies_{route}_{state}_{death}")
    want = kernel.execute(tensors).to_dict()
    key = kernel.cache_key
    breaker.reset()
    if state != "closed":
        for _ in range(3):
            breaker.record_failure(key)
        if state == "half_open":
            breaker._records[key].opened_at -= 1e6
    assert breaker.state(key) == state
    sabotage_in_workers(monkeypatch, kernel.name, DEATHS[death]())
    try:
        expect, after, failures, probes = CRASH_TABLE[route, state, death]
        if expect == "twin":
            assert SUPERVISED_ROUTES[route](kernel, tensors).to_dict() == want
        else:
            with pytest.raises(DEATH_ERRORS[death]):
                SUPERVISED_ROUTES[route](kernel, tensors)
        ledger = breaker.snapshot().get(key, {"failures": 0, "probes": 0})
        assert (breaker.state(key), ledger["failures"], ledger["probes"]) == (
            after, failures, probes)
    finally:
        breaker.reset()
