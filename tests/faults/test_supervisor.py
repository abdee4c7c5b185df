"""Supervised execution: crash containment, deadline, circuit breaker.

These tests swap the injected-crash backends of
:mod:`tests.faults.crash_kernels` into the pool workers that run
supervised calls and assert the containment contract of
:mod:`repro.runtime.pool`: the host survives, the failure comes back as
a typed error with its metadata, and kernels that keep dying are
quarantined behind the circuit breaker, which serves the pure-Python
fallback until a backoff re-probe succeeds.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.compiler.build import compile_kernel
from repro.compiler import resilience
from repro.errors import (
    CapacityError,
    KernelCrashError,
    KernelRuntimeError,
    KernelTimeoutError,
)
from repro.runtime import breaker as breaker_mod
from repro.runtime import pool as pool_mod
from repro.runtime.pool import run_supervised
from repro.verification import check_supervised_parity

from tests.faults.conftest import (
    expected_spmv,
    repro_records,
    requires_toolchain,
    spmv_problem,
    copy_problem,
)
from tests.faults.crash_kernels import (
    OomKernel,
    OverrunKernel,
    SegfaultKernel,
    SpinKernel,
    c_segfault_kernel,
    sabotage_in_workers,
)


@pytest.fixture(autouse=True)
def clean_breaker():
    """Breaker state is process-global and keyed by cache key; the same
    problem rebuilt in another test must start with a closed circuit."""
    breaker_mod.breaker.reset()
    yield
    breaker_mod.breaker.reset()


@pytest.fixture(autouse=True)
def no_pool_yet():
    """No shared pool: each supervised call starts its worker after the
    environment the test sets (workers pin it when they start)."""
    pool_mod.shutdown_shared_pool()


def _build(problem=spmv_problem, backend="python", **kw):
    ctx, expr, out, tensors = problem()
    kernel = compile_kernel(
        expr, ctx, tensors, out, backend=backend,
        name=f"sup_{problem.__name__}", **kw,
    )
    return kernel, tensors


# ----------------------------------------------------------------------
# the healthy path: supervision is pure relocation
# ----------------------------------------------------------------------
def test_supervised_parity_python_backend():
    kernel, tensors = _build()
    assert check_supervised_parity(kernel, tensors)


@requires_toolchain
def test_supervised_parity_c_backend():
    kernel, tensors = _build(backend="c")
    assert check_supervised_parity(kernel, tensors)


def test_supervised_sparse_output_parity():
    kernel, tensors = _build(copy_problem)
    assert check_supervised_parity(kernel, tensors)


# ----------------------------------------------------------------------
# crash decoding: SIGSEGV, memory cap, deadline
# ----------------------------------------------------------------------
def test_sigsegv_becomes_typed_error(monkeypatch):
    kernel, tensors = _build()
    sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGSEGV
    assert err.value.signal_name == "SIGSEGV"
    assert "SIGSEGV" in str(err.value)
    assert isinstance(err.value, KernelRuntimeError)


@requires_toolchain
def test_compiled_c_out_of_bounds_store_is_contained(monkeypatch):
    kernel, tensors = _build(backend="c")
    sabotage_in_workers(monkeypatch, kernel.name, c_segfault_kernel(kernel))
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGSEGV


def test_memory_cap_kill_is_decoded(monkeypatch):
    """An OOM-killed worker is decoded to a typed error naming SIGKILL.

    The consolidated ``REPRO_FAULT`` hook's ``supervised_child`` site
    delivers a genuine SIGKILL at the top of the worker's ``run``
    message (workers pin the environment when they start), modelling
    the OOM killer without a sabotage kernel.  The real-rlimit variant
    lives in :func:`test_rlimit_memory_cap_kill_is_decoded`."""
    monkeypatch.setenv("REPRO_FAULT", "supervised_child:sigkill")
    resilience.reset_fault_counters()
    kernel, tensors = _build()
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGKILL
    assert err.value.signal_name == "SIGKILL"


def test_rlimit_memory_cap_kill_is_decoded(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_MEM_MB", "1024")
    kernel, tensors = _build()
    sabotage_in_workers(monkeypatch, kernel.name, OomKernel())
    with pytest.raises(KernelCrashError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.signal == signal.SIGKILL
    assert err.value.signal_name == "SIGKILL"


def test_injected_child_fault_raise_mode_is_contained(monkeypatch):
    """``raise`` mode at the supervised_child site escapes the worker's
    reporting machinery (the fault fires before the try block), so the
    worker exits nonzero — which the parent decodes to a typed
    KernelCrashError, not a hang or a silent success."""
    monkeypatch.setenv("REPRO_FAULT", "supervised_child:raise")
    resilience.reset_fault_counters()
    kernel, tensors = _build()
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)


def test_infinite_loop_misses_deadline(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DEADLINE", "1.0")
    kernel, tensors = _build()
    sabotage_in_workers(monkeypatch, kernel.name, SpinKernel())
    with pytest.raises(KernelTimeoutError) as err:
        kernel.run(tensors, parallel=False, supervised=True)
    assert err.value.deadline == pytest.approx(1.0)


def test_typed_child_error_crosses_the_pipe(monkeypatch):
    """A CapacityError raised inside the worker re-raises in the parent
    with its sizing metadata intact (pickling keeps __dict__).  The
    worker's kernel counts past every reservation, so its one rerun
    overflows too."""
    kernel, tensors = _build(copy_problem)
    sabotage_in_workers(monkeypatch, kernel.name, OverrunKernel())
    with pytest.raises(CapacityError) as err:
        run_supervised(kernel, tensors, capacity=1)
    assert err.value.capacity == 2 and err.value.needed == 3


# ----------------------------------------------------------------------
# the supervision policy
# ----------------------------------------------------------------------
def test_policy_resolution(monkeypatch):
    from repro.runtime.policy import resolve

    def supervised(k, arg=None):
        return resolve(k, parallel=False, supervised=arg).supervised

    kernel, _ = _build()
    # start from a clean slate (the chaos CI job exports REPRO_SUPERVISE=1)
    monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
    # off unless asked for
    assert supervised(kernel) is False
    assert supervised(kernel, True) is True
    # environment forces it on / off
    monkeypatch.setenv("REPRO_SUPERVISE", "1")
    assert supervised(kernel) is True
    monkeypatch.setenv("REPRO_SUPERVISE", "0")
    assert supervised(kernel) is False
    monkeypatch.setenv("REPRO_SUPERVISE", "1")
    # the call argument outranks the environment
    assert supervised(kernel, False) is False
    monkeypatch.setenv("REPRO_SUPERVISE", "0")
    assert supervised(kernel, True) is True


@requires_toolchain
def test_supervised_c_kernels_run_on_the_pool(monkeypatch):
    """Supervision is asked for: a C kernel runs in process by default,
    and on a pool worker under ``supervised=True``."""
    monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
    kernel, tensors = _build(copy_problem, backend="c")
    calls = []
    real = pool_mod.pooled

    def recording(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(pool_mod, "pooled", recording)
    want = kernel.run(tensors, parallel=False).to_dict()
    assert not calls, "a call runs supervised only when asked"
    assert kernel.run(tensors, parallel=False, supervised=True).to_dict() == want
    assert calls, "supervised=True should have run on a pool worker"


# ----------------------------------------------------------------------
# the circuit breaker
# ----------------------------------------------------------------------
def test_breaker_opens_and_serves_python_fallback(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
    kernel, tensors = _build()
    oracle = kernel.execute(tensors)  # the healthy serial result
    sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    with caplog.at_level("WARNING", logger="repro"):
        for _ in range(2):
            with pytest.raises(KernelCrashError):
                kernel.run(tensors, parallel=False, supervised=True)
        assert breaker_mod.breaker.decide(kernel.cache_key) == breaker_mod.OPEN
        # the quarantined kernel now degrades transparently — and the
        # fallback result is the serial oracle's, bit for bit
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert any("circuit breaker OPEN" in r.message for r in repro_records(caplog))


def test_probe_failure_degrades_transparently(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
    kernel, tensors = _build()
    oracle = kernel.execute(tensors)
    sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    key = kernel.cache_key
    assert breaker_mod.breaker.decide(key) == breaker_mod.OPEN
    # wind the clock past the backoff: the next call is the re-probe;
    # the kernel is still broken, but the caller gets a result anyway
    breaker_mod.breaker._records[key].opened_at -= 1e6
    assert breaker_mod.breaker.decide(key) == breaker_mod.HALF_OPEN
    with caplog.at_level("WARNING", logger="repro"):
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert breaker_mod.breaker.decide(key) == breaker_mod.OPEN
    rec = breaker_mod.breaker._records[key]
    assert rec.probes == 1  # the failed probe doubled the backoff
    assert any("re-probe failed" in r.message for r in repro_records(caplog))


def test_probe_success_closes_the_breaker(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
    kernel, tensors = _build()
    oracle = kernel.execute(tensors)
    heal = sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    key = kernel.cache_key
    heal()  # the kernel recovers
    breaker_mod.breaker._records[key].opened_at -= 1e6
    with caplog.at_level("WARNING", logger="repro"):
        result = kernel.run(tensors, parallel=False, supervised=True)
    assert np.array_equal(np.asarray(result.vals), np.asarray(oracle.vals))
    assert breaker_mod.breaker.decide(key) == breaker_mod.CLOSED
    assert any("CLOSED" in r.message for r in repro_records(caplog))


def test_breaker_state_survives_a_restart(monkeypatch):
    """The on-disk kbrk record re-quarantines without fresh crashes."""
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
    kernel, tensors = _build()
    sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    with pytest.raises(KernelCrashError):
        kernel.run(tensors, parallel=False, supervised=True)
    fresh = breaker_mod.CircuitBreaker()  # simulates a new process
    assert fresh.decide(kernel.cache_key) == breaker_mod.OPEN


# ----------------------------------------------------------------------
# sharded runs: per-shard failover
# ----------------------------------------------------------------------
def test_crashing_shard_fails_over_per_shard(monkeypatch):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1000")
    kernel, tensors = _build()
    sabotage_in_workers(monkeypatch, kernel.name, SegfaultKernel())
    stats = []
    result = kernel.run_sharded(
        tensors, executor="thread", shards=2, supervised=True,
        stats_out=stats,
    )
    assert np.allclose(np.asarray(result.vals), expected_spmv(tensors))
    assert len(stats) == 2
    assert all(s.failover and s.worker == "fallback" for s in stats)
