"""Lock-timeout policy: warn-and-continue vs ``REPRO_STRICT_LOCKS``.

A build lock that stays busy past its timeout used to vanish into a
debug-level message; these tests pin the escalated contract — a
WARNING on the ``repro`` logger by default, a typed
:class:`~repro.errors.LockTimeoutError` under ``REPRO_STRICT_LOCKS=1``
— and that a *held-then-released* lock is simply waited out.

``flock`` conflicts between distinct file descriptors even within one
process, so the contention here is real, no subprocess needed.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.compiler import resilience
from repro.errors import LockTimeoutError, ReproError

from tests.faults.conftest import repro_records

fcntl = pytest.importorskip("fcntl")


@pytest.fixture
def held_lock(tmp_path):
    """Hold the flock for an artifact path on an independent fd."""
    artifact = tmp_path / "artifact.bin"
    lock_path = str(artifact) + ".lock"
    import os

    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    yield artifact
    fcntl.flock(fd, fcntl.LOCK_UN)
    os.close(fd)


def test_busy_lock_warns_and_continues(held_lock, caplog):
    entered = False
    with caplog.at_level(logging.WARNING, logger="repro"):
        with resilience.file_lock(held_lock, timeout=0.2):
            entered = True
    assert entered, "default policy must degrade to an unlocked run"
    warnings = [
        r for r in repro_records(caplog) if r.levelno >= logging.WARNING
    ]
    assert any("busy past its" in r.message for r in warnings)
    assert any("REPRO_STRICT_LOCKS" in r.message for r in warnings)


def test_strict_mode_raises_typed_error(held_lock, monkeypatch):
    monkeypatch.setenv("REPRO_STRICT_LOCKS", "1")
    with pytest.raises(LockTimeoutError) as err:
        with resilience.file_lock(held_lock, timeout=0.2):
            pytest.fail("strict mode must not enter the critical section")
    assert err.value.timeout == pytest.approx(0.2)
    assert err.value.path == str(held_lock) + ".lock"
    assert isinstance(err.value, ReproError)


def test_strict_mode_falsey_values_stay_lenient(held_lock, monkeypatch):
    monkeypatch.setenv("REPRO_STRICT_LOCKS", "0")
    with resilience.file_lock(held_lock, timeout=0.2):
        pass  # no raise


def test_released_lock_is_waited_out(tmp_path, monkeypatch):
    """A briefly held lock delays the acquirer, not the policy."""
    monkeypatch.setenv("REPRO_STRICT_LOCKS", "1")
    artifact = tmp_path / "artifact.bin"
    import os

    lock_path = str(artifact) + ".lock"
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)

    def release_soon():
        time.sleep(0.15)
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)

    t = threading.Thread(target=release_soon)
    t.start()
    start = time.monotonic()
    with resilience.file_lock(artifact, timeout=5.0):
        waited = time.monotonic() - start
    t.join()
    assert waited >= 0.1, "should have blocked until the holder released"


def test_uncontended_lock_is_silent(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="repro"):
        with resilience.file_lock(tmp_path / "artifact.bin", timeout=1.0):
            pass
    assert not [
        r for r in repro_records(caplog) if r.levelno >= logging.WARNING
    ]
