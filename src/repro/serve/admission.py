"""Admission control: decide *cheaply*, before any expensive work.

Order of checks, each with an honest ``Retry-After``:

1. lifecycle — a draining server admits nothing (503);
2. in-flight cap — backpressure on concurrency (429);
3. token bucket — backpressure on sustained rate (429);
4. cost prediction — a query the autotuner predicts to run far past
   its own deadline is rejected (429) up front instead of being
   admitted, executed, and killed at the deadline anyway.  Applied
   only when the prediction rests on a *measured* calibration profile
   (unmeasured default constants are not evidence to shed load on)
   and only beyond a generous 3× margin;
5. memory governor — under ``REPRO_MEM_BUDGET_MB``, a query whose
   cost-model result footprint exceeds the budget is rejected (503)
   with a one-deadline Retry-After, or — under
   ``REPRO_SERVE_DEGRADE=spill`` — admitted with durable execution
   forced, so its partials spill to the job journal instead of RAM;
6. circuit breaker — a query whose kernel is quarantined is rejected
   (503) with the breaker's own re-probe ETA, *before compiling
   anything*: the prepared query carries its kernel cache key, and the
   breaker is keyed by exactly that key.

Under ``REPRO_SERVE_DEGRADE=fallback`` check 4 is skipped: the query
is admitted and ``Kernel.run`` transparently serves the pure-Python
twin — slower, memory-safe answers instead of 503s.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import config as knobs  # `config` names a ServeConfig here
from repro.serve.config import ServeConfig
from repro.serve.query import PreparedQuery


@dataclass(frozen=True)
class Rejection:
    """A shed request: HTTP status, reason tag, and Retry-After."""

    status: int
    reason: str
    retry_after: float


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    ``try_acquire`` never blocks — load shedding answers *now*; the
    returned hint is how long until a token would have been available.
    A rate of 0 disables the limiter.
    """

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._tokens = float(self.burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self) -> Optional[float]:
        """None when admitted; else seconds until the next token."""
        if self.rate <= 0:
            return None
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._stamp) * self.rate,
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """The per-request gate; owns the bucket, consults the breaker."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.bucket = TokenBucket(config.qps, config.burst)

    def admit(
        self, prepared: PreparedQuery, inflight: int
    ) -> Optional[Rejection]:
        """None to admit, else the :class:`Rejection` to serve."""
        cfg = self.config
        if inflight >= cfg.max_inflight:
            # in-flight work clears at roughly deadline/inflight pace;
            # a quarter-deadline hint spreads the retries out
            return Rejection(
                429, "overloaded: in-flight cap reached",
                max(0.1, cfg.deadline / 4.0),
            )
        wait = self.bucket.try_acquire()
        if wait is not None:
            return Rejection(429, "rate limited", max(0.05, wait))
        rejection = self._reject_hopeless(prepared)
        if rejection is not None:
            return rejection
        rejection = self._govern_memory(prepared)
        if rejection is not None:
            return rejection
        if (
            prepared.kernel_key is not None
            and cfg.degrade in ("reject", "spill")
        ):
            from repro.runtime.breaker import breaker

            if breaker.is_open(prepared.kernel_key):
                eta = breaker.retry_after(prepared.kernel_key) or 0.0
                return Rejection(
                    503,
                    "kernel quarantined by circuit breaker",
                    max(0.5, eta),
                )
        return None

    #: reject only when predicted runtime exceeds this multiple of the
    #: effective deadline — the model ranks plans well but its absolute
    #: seconds deserve a wide error bar
    PREDICTION_MARGIN = 3.0

    def _govern_memory(
        self, prepared: PreparedQuery
    ) -> Optional[Rejection]:
        """Memory-aware admission under ``REPRO_MEM_BUDGET_MB``.

        A query whose cost-model footprint exceeds the budget is shed
        with 503 (the honest Retry-After is one deadline: memory frees
        as in-flight work completes) — unless the operator chose
        ``REPRO_SERVE_DEGRADE=spill``, in which case the query is
        admitted but *forced durable*: its partials spill to the job
        journal and the merge streams, keeping residency bounded.  No
        budget, or no footprint estimate, admits normally.
        """
        budget_mb = knobs.get("REPRO_MEM_BUDGET_MB")
        if budget_mb is None or prepared.footprint_bytes is None:
            return None
        if prepared.footprint_bytes <= budget_mb * 1024 * 1024:
            return None
        if self.config.degrade == "spill":
            prepared.durable = True
            return None
        return Rejection(
            503,
            f"predicted result footprint "
            f"{prepared.footprint_bytes / 1048576.0:.1f}MiB exceeds the "
            f"{budget_mb:.0f}MiB memory budget",
            max(1.0, self.config.deadline),
        )

    def _reject_hopeless(
        self, prepared: PreparedQuery
    ) -> Optional[Rejection]:
        """Shed a query whose *tuned best plan* still cannot finish.

        Requires a measured calibration profile: the tuner stamps
        ``predicted_s`` from real per-unit throughput only then, and
        guessing at load shedding is worse than not shedding."""
        predicted = prepared.predicted_s
        if predicted is None or predicted <= 0:
            return None
        try:
            from repro.autotune import get_profile

            if not get_profile().measured:
                return None
        except Exception:
            return None
        deadline = self.config.deadline
        if prepared.deadline_ms is not None:
            deadline = min(deadline, prepared.deadline_ms / 1e3)
        if predicted > deadline * self.PREDICTION_MARGIN:
            return Rejection(
                429,
                f"predicted runtime {predicted:.1f}s exceeds the "
                f"{deadline:.1f}s deadline",
                max(1.0, deadline),
            )
        return None


__all__ = ["AdmissionController", "Rejection", "TokenBucket"]
