"""A per-kernel circuit breaker over supervised execution failures.

A kernel that keeps segfaulting or timing out under supervision is not
worth forking for on every request: after ``REPRO_BREAKER_THRESHOLD``
consecutive crash/timeout failures the breaker *opens* and
``Kernel.run`` transparently degrades to the pure-Python backend (a
rebuild from the kernel's recipe — memory-safe, slower, numerically
identical).  An open breaker re-probes the real kernel with exponential
backoff plus jitter: after ``REPRO_BREAKER_BACKOFF`` seconds (doubled
per failed probe, ±50% jitter) exactly one call runs the supervised
kernel again (*half-open*); success closes the breaker, failure
re-opens it with a longer delay.

::

                 failure × N                    backoff elapsed
      CLOSED ──────────────────► OPEN ──────────────────────► HALF-OPEN
        ▲                          ▲                              │
        │ probe succeeds           │ probe fails (backoff ×2)     │
        └──────────────────────────┴──────────────────────────────┘

Breaker state is keyed by the kernel's canonical cache key, held in
memory, and mirrored to ``kbrk_<key>.json`` records in the kernel cache
directory (atomic writes under the per-key file lock, the PR 2
machinery) so that a service restarting — or a sibling worker process —
does not have to re-crash its way to the same conclusion.  Every
transition is logged through the ``repro`` logger; degradation is never
silent.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional

from repro import config
from repro.compiler import resilience
from repro.compiler.resilience import logger

#: ceiling for the exponential re-probe delay
MAX_BACKOFF = 600.0
#: closed, untouched breaker records older than this are swept (seconds)
RECORD_TTL = 7 * 24 * 3600.0

#: states reported by :meth:`CircuitBreaker.decide`
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


def _now() -> float:
    """Wall-clock seconds (module-level so tests can monkeypatch time)."""
    return time.time()


@dataclass
class BreakerRecord:
    """Persistent per-key breaker state."""

    failures: int = 0
    opened_at: Optional[float] = None
    probes: int = 0

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None


class CircuitBreaker:
    """Threshold/backoff bookkeeping for supervised kernels. Thread-safe."""

    def __init__(self, persist: bool = True) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, BreakerRecord] = {}
        self._persist = persist
        #: directories already TTL-swept by this instance (once per dir
        #: per process is plenty — the sweep is about unbounded growth
        #: across service lifetimes, not real-time accuracy)
        self._swept: set = set()
        #: keys whose half-open probe is currently in flight — exactly
        #: one caller may hold the claim; everyone else sees ``open``
        #: until the probe reports back (``record_success`` /
        #: ``record_failure`` with ``probe=True`` releases it)
        self._probing: set = set()

    # -- state machine -------------------------------------------------
    def decide(self, key: str) -> str:
        """``closed`` (run normally), ``open`` (serve the fallback), or
        ``half_open`` (a re-probe is due).  Read-only: deciding never
        claims the probe — callers that intend to *run* the probe go
        through :meth:`try_probe`."""
        with self._lock:
            return self._state_locked(key)

    def _state_locked(self, key: str) -> str:
        rec = self._load(key)
        if not rec.is_open:
            return CLOSED
        if key in self._probing:
            return OPEN
        if _now() >= self._reprobe_at(key, rec):
            return HALF_OPEN
        return OPEN

    def try_probe(self, key: str) -> str:
        """Like :meth:`decide`, but a ``half_open`` verdict *claims*
        the probe: exactly one concurrent caller per key is told to
        re-run the supervised kernel; everyone else sees ``open`` until
        that probe reports back through ``record_success`` /
        ``record_failure`` (``probe=True`` releases the claim).

        Without the claim, N threads deciding inside the same backoff
        window would all probe a kernel the breaker believes is
        crashing — N crashes instead of one.
        """
        with self._lock:
            state = self._state_locked(key)
            if state == HALF_OPEN:
                self._probing.add(key)
            return state

    def record_failure(self, key: str, name: str = "?", probe: bool = False) -> bool:
        """Count one supervised crash/timeout; returns True when this
        failure opened (or re-opened) the breaker."""
        with self._lock:
            if probe:
                self._probing.discard(key)
            rec = self._load(key)
            rec.failures += 1
            opened = False
            if probe and rec.is_open:
                rec.probes += 1
                rec.opened_at = _now()
                opened = True
                logger.warning(
                    "kernel %r: re-probe failed (probe #%d); circuit stays "
                    "open, next probe in ~%.0fs",
                    name, rec.probes, self._backoff(rec),
                )
            elif (not rec.is_open and rec.failures
                    >= config.get("REPRO_BREAKER_THRESHOLD")):
                rec.opened_at = _now()
                rec.probes = 0
                opened = True
                logger.warning(
                    "kernel %r: %d supervised failure(s) — circuit breaker "
                    "OPEN; serving the Python-backend fallback, first "
                    "re-probe in ~%.0fs",
                    name, rec.failures, self._backoff(rec),
                )
            self._store(key, rec)
            return opened

    def record_success(self, key: str, name: str = "?", probe: bool = False) -> None:
        """A supervised run completed: close (and forget) the breaker."""
        with self._lock:
            if probe:
                self._probing.discard(key)
            rec = self._records.get(key)
            was_open = rec.is_open if rec is not None else False
            self._records[key] = BreakerRecord()
            self._erase(key)
            if was_open:
                logger.warning(
                    "kernel %r: re-probe succeeded; circuit breaker CLOSED "
                    "(native execution restored)", name,
                )

    def release_probe(self, key: str) -> None:
        """Hand back an unused probe claim.

        A claimed probe that neither crashed nor succeeded (the child
        raised a typed kernel error — a :class:`CapacityError`, say —
        which says nothing about crash-worthiness) must not leave the
        key wedged in its in-flight state forever.
        """
        with self._lock:
            self._probing.discard(key)

    def state(self, key: str) -> str:
        return self.decide(key)

    def is_open(self, key: str) -> bool:
        """Whether the breaker currently refuses native execution for
        this key (open, including a claimed in-flight probe)."""
        return self.state(key) != CLOSED

    def retry_after(self, key: str) -> Optional[float]:
        """Seconds until the next half-open probe could run — the
        honest ``Retry-After`` for a load-shedding server rejecting an
        open-breaker kernel at admission.

        ``None`` when the breaker is closed (nothing to wait for);
        ``0.0`` when a probe is already due (or in flight — its result
        lands within one kernel deadline, not one backoff).
        """
        with self._lock:
            rec = self._load(key)
            if not rec.is_open:
                return None
            return max(0.0, self._reprobe_at(key, rec) - _now())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Current per-key state, for observability surfaces (the
        worker pool's :meth:`~repro.runtime.pool.WorkerPool.snapshot`
        reports this next to its own per-key failure counters — the
        breaker and the pool key off the same failures)."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for key, rec in self._records.items():
                out[key] = {
                    "failures": rec.failures,
                    "probes": rec.probes,
                    "open": rec.is_open,
                    "probing": key in self._probing,
                }
            return out

    def reset(self) -> None:
        """Forget everything (tests)."""
        with self._lock:
            for key in list(self._records):
                self._erase(key)
            self._records.clear()
            self._probing.clear()

    # -- timing --------------------------------------------------------
    def _backoff(self, rec: BreakerRecord) -> float:
        return min(
            MAX_BACKOFF,
            config.get("REPRO_BREAKER_BACKOFF") * (2.0 ** rec.probes),
        )

    def _reprobe_at(self, key: str, rec: BreakerRecord) -> float:
        """The earliest wall-clock time of the next half-open probe.

        Jitter is deterministic per (key, probe count) — re-deciding
        must not re-roll the dice — and spreads a fleet of processes
        that opened together over 1.0–1.5× the base delay so their
        probes do not stampede the moment the backoff elapses.
        """
        assert rec.opened_at is not None
        jitter = 1.0 + 0.5 * random.Random(f"{key}:{rec.probes}").random()
        return rec.opened_at + self._backoff(rec) * jitter

    # -- persistence (kernel cache dir, atomic + per-key flock) --------
    def _path(self, key: str) -> Optional[Path]:
        if not self._persist:
            return None
        try:
            from repro.compiler.cache import default_cache_dir

            return default_cache_dir() / f"kbrk_{key[:24]}.json"
        except Exception:  # pragma: no cover - cache layer unavailable
            return None

    def _sweep(self, directory: Path) -> None:
        """GC stale persisted breaker records, once per directory.

        ``kbrk_*.json`` files otherwise accumulate forever: every
        kernel that ever tripped a failure leaves one behind, and cache
        keys are content-addressed so old kernel versions never get
        theirs overwritten.  A record both *closed* (``opened_at`` is
        null — an open breaker is live state, never swept) and
        untouched for :data:`RECORD_TTL` (7 days) is deleted; an
        unreadable record past the TTL is junk and goes too.
        """
        if directory in self._swept:
            return
        self._swept.add(directory)
        cutoff = _now() - RECORD_TTL
        try:
            candidates = list(directory.glob("kbrk_*.json"))
        except OSError:
            return
        swept = 0
        for p in candidates:
            try:
                if p.stat().st_mtime >= cutoff:
                    continue
            except OSError:
                continue
            try:
                if json.loads(p.read_text()).get("opened_at") is not None:
                    continue  # open breaker: live state
            except (OSError, ValueError, TypeError):
                pass  # unreadable + stale: sweep it
            try:
                p.unlink()
                swept += 1
            except OSError:
                continue
        if swept:
            logger.info("breaker GC swept %d stale record(s) under %s",
                        swept, directory)

    def _load(self, key: str) -> BreakerRecord:
        rec = self._records.get(key)
        if rec is not None:
            return rec
        rec = BreakerRecord()
        path = self._path(key)
        if path is not None:
            self._sweep(path.parent)
        if path is not None:
            try:
                data = json.loads(path.read_text())
                rec = BreakerRecord(
                    failures=int(data["failures"]),
                    opened_at=data["opened_at"],
                    probes=int(data["probes"]),
                )
            except FileNotFoundError:
                pass
            except (OSError, ValueError, TypeError, KeyError) as exc:
                logger.debug("unreadable breaker record %s (%s)", path, exc)
        self._records[key] = rec
        return rec

    def _store(self, key: str, rec: BreakerRecord) -> None:
        self._records[key] = rec
        path = self._path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with resilience.file_lock(path):
                resilience.atomic_write_text(path, json.dumps(asdict(rec)))
        except OSError as exc:
            logger.debug("could not persist breaker record %s (%s)", path, exc)

    def _erase(self, key: str) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass


#: the process-wide breaker consulted by ``Kernel.run``
breaker = CircuitBreaker()

__all__ = [
    "CircuitBreaker",
    "BreakerRecord",
    "breaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "MAX_BACKOFF",
]
