"""Bounded retry with exponential backoff + jitter — transient only.

The retry loop consults the error taxonomy's
:func:`~repro.errors.is_retryable` classification instead of
pattern-matching exception types: a deterministic failure (shape
mismatch, source-level :class:`~repro.errors.CompileError`, capacity
exhaustion) is *never* replayed — the same inputs produce the same
failure, and a replay only burns the caller's deadline budget.

A dead kernel (:class:`~repro.errors.KernelCrashError`) is not
replayed: the pool has already replaced the worker and the circuit
breaker books the death (:func:`repro.runtime.route.guard`).  Every
sleep is checked against the request budget — when the next backoff
would outlive the deadline, the last error surfaces now instead of
after a pointless wait.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.compiler.resilience import logger
from repro.errors import is_retryable
from repro.serve.deadline import Budget

T = TypeVar("T")

#: backoff ceiling between attempts, seconds
MAX_DELAY = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """``retries`` extra attempts, exponential base delay, full jitter."""

    retries: int = 2
    #: base backoff, seconds (the server runs at this default)
    base: float = 0.05

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter backoff for the given 0-based failed attempt:
        uniform in ``[0, base · 2^attempt]``, capped at
        :data:`MAX_DELAY`."""
        ceiling = min(MAX_DELAY, self.base * (2.0 ** attempt))
        return rng.uniform(0.0, ceiling)


def run_with_retry(
    fn: Callable[[], T],
    *,
    budget: Budget,
    policy: RetryPolicy,
    rng: random.Random,
    what: str = "request",
) -> T:
    """Call ``fn`` until it succeeds, retries are exhausted, the error
    is deterministic, or the budget cannot afford another attempt.

    Runs synchronously (inside an executor thread); the sleeps are real
    ``time.sleep`` calls charged to the request's own budget.
    """
    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except Exception as exc:
            if not is_retryable(exc):
                raise
            if attempt >= policy.retries:
                raise
            delay = policy.delay(attempt, rng)
            if budget.remaining() <= delay:
                raise
            logger.warning(
                "%s: attempt %d failed (%s: %s); retrying in %.0f ms",
                what, attempt + 1, type(exc).__name__, exc, delay * 1e3,
            )
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


__all__ = ["RetryPolicy", "run_with_retry", "MAX_DELAY"]
