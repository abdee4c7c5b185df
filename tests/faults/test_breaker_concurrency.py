"""The circuit breaker under thread fire: one probe, no lost state.

The serving layer multiplied the breaker's concurrency exposure — every
request thread consults it at admission *and* around supervised
dispatch — so the invariants get their own adversarial suite:

* N threads recording failures concurrently: exactly one observes the
  closed→open transition, and no failure count is lost.
* N threads racing ``try_probe`` inside the same elapsed backoff
  window: exactly one is told ``half_open``; the rest see ``open``.
* The flock-persisted ``kbrk_*.json`` record stays consistent through
  the stampede — a sibling breaker instance (a fresh process, in
  effect) reloads the same verdict — and is erased on close.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.compiler.cache import default_cache_dir
from repro.runtime.breaker import (
    CLOSED, HALF_OPEN, OPEN, RECORD_TTL, CircuitBreaker,
)

KEY = "cafebabe" * 8
THREADS = 16


@pytest.fixture(autouse=True)
def tight_breaker(monkeypatch):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "5")
    monkeypatch.setenv("REPRO_BREAKER_BACKOFF", "0.05")


def _hammer(n, fn):
    """Run ``fn(i)`` on n threads released by a barrier; return results."""
    barrier = threading.Barrier(n)
    results = [None] * n

    def work(i):
        barrier.wait()
        results[i] = fn(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _record_path():
    return default_cache_dir() / f"kbrk_{KEY[:24]}.json"


def _open_breaker(brk, failures=5):
    for _ in range(failures):
        brk.record_failure(KEY)
    assert brk.decide(KEY) == OPEN


def _wait_half_open(brk, budget=5.0):
    """Sleep out the (jittered) backoff until a probe is due."""
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if brk.decide(KEY) == HALF_OPEN:
            return
        time.sleep(0.01)
    pytest.fail("breaker never reached half-open within the budget")


def test_concurrent_failures_open_exactly_once_and_lose_nothing():
    brk = CircuitBreaker()
    opened = _hammer(THREADS, lambda i: brk.record_failure(KEY))
    assert opened.count(True) == 1, (
        f"{opened.count(True)} threads observed the closed→open edge"
    )
    snap = brk.snapshot()[KEY]
    assert snap["open"] is True
    assert snap["failures"] == THREADS          # no update lost to a race
    on_disk = json.loads(_record_path().read_text())
    assert on_disk["failures"] == THREADS
    assert on_disk["opened_at"] is not None


def test_exactly_one_thread_wins_the_half_open_probe():
    brk = CircuitBreaker()
    _open_breaker(brk)
    _wait_half_open(brk)

    verdicts = _hammer(THREADS, lambda i: brk.try_probe(KEY))
    assert verdicts.count(HALF_OPEN) == 1, (
        f"{verdicts.count(HALF_OPEN)} concurrent probes claimed — "
        "a crashing kernel would be stampeded"
    )
    assert verdicts.count(OPEN) == THREADS - 1
    # while the claim is held, *nobody* gets another probe —
    # not even the read-only decision surface reports one as due
    assert brk.try_probe(KEY) == OPEN
    assert brk.decide(KEY) == OPEN
    assert brk.snapshot()[KEY]["probing"] is True


def test_failed_probe_reopens_and_the_next_window_grants_one_again():
    brk = CircuitBreaker()
    _open_breaker(brk)
    _wait_half_open(brk)
    assert brk.try_probe(KEY) == HALF_OPEN
    brk.record_failure(KEY, probe=True)

    snap = brk.snapshot()[KEY]
    assert snap["open"] is True and snap["probing"] is False
    assert snap["probes"] == 1                  # backoff doubled
    _wait_half_open(brk)
    verdicts = _hammer(THREADS, lambda i: brk.try_probe(KEY))
    assert verdicts.count(HALF_OPEN) == 1


def test_released_probe_claim_is_not_wedged():
    brk = CircuitBreaker()
    _open_breaker(brk)
    _wait_half_open(brk)
    assert brk.try_probe(KEY) == HALF_OPEN
    assert brk.try_probe(KEY) == OPEN           # claim held
    brk.release_probe(KEY)                      # typed error: no verdict
    assert brk.try_probe(KEY) == HALF_OPEN      # claim available again


def test_probe_success_closes_and_erases_persisted_state():
    brk = CircuitBreaker()
    _open_breaker(brk)
    assert _record_path().exists()
    _wait_half_open(brk)
    assert brk.try_probe(KEY) == HALF_OPEN
    brk.record_success(KEY, probe=True)
    assert brk.decide(KEY) == CLOSED
    assert not _record_path().exists(), (
        "a closed breaker must not leave a stale open verdict for the "
        "next process to inherit"
    )


def test_successes_on_a_loaded_closed_key_touch_no_file(monkeypatch):
    brk = CircuitBreaker()
    assert brk.decide(KEY) == CLOSED            # loads the key: no record
    unlinked = []
    real_unlink = Path.unlink

    def spy(self, *args, **kwargs):
        unlinked.append(self)
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", spy)
    for _ in range(5):
        brk.record_success(KEY)
    assert unlinked == []


def test_a_success_after_a_failure_erases_the_record():
    brk = CircuitBreaker()
    brk.record_failure(KEY)
    assert _record_path().exists()
    brk.record_success(KEY)
    assert not _record_path().exists()
    assert CircuitBreaker().decide(KEY) == CLOSED


def test_sibling_process_reloads_the_hammered_state(monkeypatch):
    """A second breaker instance — fresh memory, same cache dir — must
    read the flock-persisted record the first wrote under contention."""
    # the sibling must find the breaker still *open*: on a loaded box
    # sixteen flocked writes outlast the suite's 50 ms backoff
    monkeypatch.setenv("REPRO_BREAKER_BACKOFF", "0.5")
    first = CircuitBreaker()
    _hammer(THREADS, lambda i: first.record_failure(KEY))

    sibling = CircuitBreaker()
    assert sibling.decide(KEY) == OPEN
    assert sibling.snapshot()[KEY]["failures"] == THREADS
    assert sibling.retry_after(KEY) > 0

    # the sibling's successful probe erases the shared record...
    _wait_half_open(sibling)
    assert sibling.try_probe(KEY) == HALF_OPEN
    sibling.record_success(KEY, probe=True)
    assert not _record_path().exists()
    # ...so a third instance starts closed
    assert CircuitBreaker().decide(KEY) == CLOSED


def test_mixed_readers_and_writers_stay_consistent():
    """Failures, decisions, and Retry-After queries interleaved across
    threads: every write lands, and no reader deadlocks or crashes."""
    brk = CircuitBreaker()
    writes_per_thread = 8

    def mixed(i):
        for _ in range(writes_per_thread):
            brk.record_failure(KEY)
            brk.decide(KEY)
            brk.retry_after(KEY)
            brk.is_open(KEY)
        return True

    assert all(_hammer(THREADS, mixed))
    assert brk.snapshot()[KEY]["failures"] == THREADS * writes_per_thread


def test_load_sweeps_only_stale_closed_records():
    """The first load in a directory GCs records that are both closed
    and untouched for ``RECORD_TTL``; an open breaker is live state
    however old, and a fresh record is somebody's current count."""
    directory = default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    closed = {"failures": 2, "opened_at": None, "probes": 0}
    records = {
        "stale_closed": (closed, True),
        "stale_open": (dict(closed, opened_at=1.0), True),
        "fresh_closed": (closed, False),
    }
    long_ago = time.time() - RECORD_TTL - 60.0
    for tag, (payload, stale) in records.items():
        path = directory / f"kbrk_{tag}.json"
        path.write_text(json.dumps(payload))
        if stale:
            os.utime(path, (long_ago, long_ago))

    assert CircuitBreaker().decide(KEY) == CLOSED     # loads, so sweeps
    left = sorted(p.name for p in directory.glob("kbrk_*.json"))
    assert left == ["kbrk_fresh_closed.json", "kbrk_stale_open.json"]
