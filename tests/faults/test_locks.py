"""Lock-timeout policy: warn-and-continue.

A build lock that stays busy past its timeout used to vanish into a
debug-level message; these tests pin the escalated contract — a
WARNING on the ``repro`` logger, then the caller runs unlocked
(publication is atomic) — and that a *held-then-released* lock is
simply waited out, without the warning.

``flock`` conflicts between distinct file descriptors even within one
process, so the contention here is real, no subprocess needed.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.compiler import resilience

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
    assert any(
        "busy past its" in r.message and str(held_lock) in r.message
        for r in warnings)


def test_released_lock_is_waited_out(tmp_path, caplog):
    """A briefly held lock delays the acquirer, not the policy."""
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
    with caplog.at_level(logging.WARNING, logger="repro"):
        with resilience.file_lock(artifact, timeout=5.0):
            waited = time.monotonic() - start
    t.join()
    assert waited >= 0.1, "should have blocked until the holder released"
    assert not any("busy past" in r.message for r in repro_records(caplog))


def test_uncontended_lock_is_silent(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="repro"):
        with resilience.file_lock(tmp_path / "artifact.bin", timeout=1.0):
            pass
    assert not [
        r for r in repro_records(caplog) if r.levelno >= logging.WARNING
    ]
