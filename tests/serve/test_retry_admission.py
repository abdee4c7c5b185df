"""The retry loop's taxonomy discipline and the admission gate."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    CapacityError,
    CompileError,
    KernelCrashError,
    ShapeError,
)
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.config import ServeConfig
from repro.serve.deadline import Budget, request_budget
from repro.serve.query import prepare_request
from repro.serve.retrying import RetryPolicy, run_with_retry
from tests.serve.harness import einsum_query

RNG = random.Random(7)
FAST = RetryPolicy(retries=3, base=0.001)


def _counting(failures):
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= len(failures):
            raise failures[calls["n"] - 1]
        return "ok"

    return fn, calls


def test_transient_compile_error_is_retried():
    transient = CompileError("cc died", returncode=-9)
    fn, calls = _counting([transient, transient])
    assert run_with_retry(fn, budget=Budget(5), policy=FAST, rng=RNG) == "ok"
    assert calls["n"] == 3


@pytest.mark.parametrize("error", [
    ShapeError("rank mismatch"),
    CapacityError("overflow", needed=10, capacity=2),
    CompileError("bad source", returncode=1),   # deterministic variant
])
def test_deterministic_errors_never_replay(error):
    fn, calls = _counting([error] * 5)
    with pytest.raises(type(error)):
        run_with_retry(fn, budget=Budget(5), policy=FAST, rng=RNG)
    assert calls["n"] == 1


def test_crash_is_never_replayed():
    """The pool already replaced the dead worker and the breaker booked
    the death: a replay would only crash a second worker."""
    crash = KernelCrashError("boom", signal=11)
    fn, calls = _counting([crash] * 5)
    with pytest.raises(KernelCrashError):
        run_with_retry(fn, budget=Budget(5), policy=FAST, rng=RNG)
    assert calls["n"] == 1


def test_exhausted_budget_stops_retrying():
    transient = CompileError("cc died", timeout=True)
    fn, calls = _counting([transient] * 5)
    with pytest.raises(CompileError):
        run_with_retry(
            fn, budget=Budget(0.0), policy=RetryPolicy(retries=5, base=0.05),
            rng=RNG,
        )
    assert calls["n"] == 1


def test_request_budget_is_clamped_to_server_deadline():
    assert request_budget(None, 10.0).total == 10.0
    assert request_budget(2000, 10.0).total == pytest.approx(2.0)
    assert request_budget(60_000, 10.0).total == 10.0


def test_token_bucket_sheds_and_recovers():
    bucket = TokenBucket(rate=1000.0, burst=3)
    assert [bucket.try_acquire() for _ in range(3)] == [None] * 3
    wait = bucket.try_acquire()
    assert wait is not None and 0 < wait <= 0.01
    import time

    time.sleep(wait + 0.005)
    assert bucket.try_acquire() is None


def test_admission_inflight_cap():
    ctl = AdmissionController(ServeConfig(max_inflight=2, deadline=8.0))
    prepared = prepare_request(einsum_query())
    assert ctl.admit(prepared, inflight=1) is None
    rejection = ctl.admit(prepared, inflight=2)
    assert rejection.status == 429
    assert rejection.retry_after == pytest.approx(2.0)


def test_admission_rejects_open_breaker_before_compile(monkeypatch):
    from repro.runtime import breaker as breaker_mod

    prepared = prepare_request(einsum_query())
    threshold_failures = 3
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", str(threshold_failures))
    for _ in range(threshold_failures):
        breaker_mod.breaker.record_failure(prepared.kernel_key)
    assert breaker_mod.breaker.is_open(prepared.kernel_key)

    ctl = AdmissionController(ServeConfig(degrade="reject"))
    rejection = ctl.admit(prepared, inflight=0)
    assert rejection is not None
    assert rejection.status == 503
    assert rejection.retry_after > 0
    # the honest hint tracks the breaker's own re-probe ETA
    eta = breaker_mod.breaker.retry_after(prepared.kernel_key)
    assert rejection.retry_after == pytest.approx(max(0.5, eta), rel=0.2)

    fallback = AdmissionController(ServeConfig(degrade="fallback"))
    assert fallback.admit(prepared, inflight=0) is None
