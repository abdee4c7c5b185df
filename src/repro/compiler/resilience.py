"""Resilient build & execution utilities for the compiler pipeline.

What the pipeline needs to degrade gracefully when gcc, the cache
directory or a cache artifact is not what it assumed (which knob says
what lives in :mod:`repro.config`, not here):

* **Logging** — :data:`logger`, the shared ``repro`` logger every
  fallback and recovery path reports through: none is silent.
* **Fault injection** — :func:`fault_point`, the ``REPRO_FAULT`` sites
  the chaos tests kill at.
* **Toolchain probing** — :func:`toolchain_available` (cached per
  compiler name; ``REPRO_GCC`` doubles as a fault-injection hook) and
  :func:`is_transient`, which classifies compiler exits worth one
  retry (signals/OS hiccups, not source errors).
* **Crash-safe writes** — :func:`atomic_write_text` /
  :func:`atomic_write_bytes` publish files via write-to-temp +
  ``os.replace`` so a concurrent reader never observes a half-written
  artifact; :func:`file_lock` serializes builders racing on one cache
  key.
* **Quarantine** — :func:`quarantine` renames a corrupt artifact to
  ``<name>.corrupt`` (keeping it for post-mortem) so the builder can
  rebuild into a clean slot; :func:`usable_cache_dir` finds somewhere
  artifacts can land.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro import config

try:  # POSIX advisory locks; Windows falls back to O_EXCL spinning
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: name of the default handler :func:`_get_logger` installs exactly once
_HANDLER_NAME = "repro-default"


def _get_logger(name: str = "repro") -> logging.Logger:
    """The shared ``repro`` logger, with its default handler installed
    *idempotently*.

    Worker processes of the parallel runtime re-enter this module —
    spawned workers by re-importing it, forked workers by inheriting the
    parent's already-configured logger and then running their own
    initializer.  Naively calling ``addHandler`` on each entry would
    stack duplicate handlers and every warning would print once per
    (re-)initialization.  Handlers are therefore deduplicated by name:
    if a handler called ``repro-default`` is already attached, the
    logger is returned untouched.
    """
    log = logging.getLogger(name)
    for handler in log.handlers:
        if getattr(handler, "name", None) == _HANDLER_NAME:
            return log
    handler = logging.StreamHandler()
    handler.name = _HANDLER_NAME
    handler.setFormatter(
        logging.Formatter("[%(processName)s] %(name)s %(levelname)s: %(message)s")
    )
    log.addHandler(handler)
    return log


#: the package-wide logger every fallback/recovery path reports through
logger = _get_logger()


def parallel_backend() -> Optional[str]:
    """``config.get("REPRO_PARALLEL")``; kept, with the two below, for
    the ``bench/`` layers that call them by this name."""
    return config.get("REPRO_PARALLEL")


def supervise_mode() -> bool:
    return config.get("REPRO_SUPERVISE")


def shm_threshold() -> int:
    return config.get("REPRO_SHM_THRESHOLD")


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
_fault_lock = threading.Lock()
_fault_hits: Dict[str, int] = {}
_fault_fired: Dict[str, bool] = {}


def reset_fault_counters() -> None:
    """Forget which fault sites have been hit/fired (tests)."""
    with _fault_lock:
        _fault_hits.clear()
        _fault_fired.clear()


def _parse_fault_spec(raw: str):
    """``<site>[:<mode>[:<n>]]`` → ``(site, mode, n)`` or ``None``."""
    parts = [p.strip() for p in raw.split(":")]
    site = parts[0]
    mode = parts[1].lower() if len(parts) > 1 and parts[1] else "raise"
    if not site:
        return None
    if mode not in ("raise", "sigkill"):
        logger.warning("ignoring invalid REPRO_FAULT=%r (unknown mode %r; "
                       "expected raise/sigkill)", raw, mode)
        return None
    n = 1
    if len(parts) > 2 and parts[2]:
        try:
            n = int(parts[2])
        except ValueError:
            logger.warning("ignoring invalid REPRO_FAULT=%r (hit count %r "
                           "not an integer)", raw, parts[2])
            return None
        if n < 1:
            logger.warning("ignoring invalid REPRO_FAULT=%r (hit count must "
                           "be >= 1)", raw)
            return None
    return site, mode, n


def fault_point(site: str) -> None:
    """A named fault-injection site for chaos tests.

    ``REPRO_FAULT=<site>[:<mode>[:<n>]]`` arms exactly one site per
    process: on the *n*-th hit (default: the first) of the named site
    the hook fires once — ``raise`` mode (the default) raises
    :class:`~repro.errors.InjectedFault`, ``sigkill`` mode delivers
    ``SIGKILL`` to the current process, simulating the OOM killer.
    Subsequent hits pass through, so an in-process re-run after a
    ``raise``-mode failure completes normally.  Unset, or armed for a
    different site, the call is a no-op (one dict lookup).

    Production code calls this at the handful of places chaos tests
    need to kill: after a shard partial is journaled (``shard``),
    before the merge (``merge``), and at the top of a pool worker's
    ``run`` message, before the kernel runs (``supervised_child``; the
    worker cannot tell a supervised run from a ``pool``-executor shard,
    so the site fires on either).
    """
    raw = config.get("REPRO_FAULT")
    if not raw:
        return
    spec = _parse_fault_spec(raw)
    if spec is None or spec[0] != site:
        return
    _, mode, n = spec
    with _fault_lock:
        if _fault_fired.get(site):
            return
        _fault_hits[site] = _fault_hits.get(site, 0) + 1
        if _fault_hits[site] < n:
            return
        _fault_fired[site] = True
    if mode == "sigkill":
        import signal as _signal

        logger.warning("fault injection: SIGKILL at site %r", site)
        os.kill(os.getpid(), _signal.SIGKILL)
        return  # pragma: no cover - unreachable
    from repro.errors import InjectedFault

    raise InjectedFault(site)


def signal_name(signum: int) -> str:
    """Symbolic name of a signal number (``SIG<n>`` when unknown)."""
    from repro.errors import _signal_name

    return _signal_name(signum)


_probe_lock = threading.Lock()
_probe_cache: Dict[str, bool] = {}


def toolchain_available(refresh: bool = False) -> bool:
    """Whether the configured C compiler is on ``PATH`` (probe cached
    per compiler name; ``refresh=True`` re-probes)."""
    cc = config.get("REPRO_GCC")
    with _probe_lock:
        if refresh or cc not in _probe_cache:
            _probe_cache[cc] = shutil.which(cc) is not None
        return _probe_cache[cc]


def reset_probe_cache() -> None:
    """Forget probe results (tests; after installing a toolchain)."""
    with _probe_lock:
        _probe_cache.clear()


def is_transient(
    returncode: Optional[int], seen_signals: Iterable[int] = ()
) -> bool:
    """Whether a compiler exit status is worth one retry.

    Death by signal (negative returncode on POSIX) usually means an OOM
    kill or an external interruption, not a defect in the generated
    source; a regular nonzero exit is a real compile error and retrying
    would only fail identically.

    ``seen_signals`` is the set of signal numbers that already killed a
    previous attempt of the *same* build: a toolchain SIGKILLed twice is
    being OOM-killed deterministically, and hammering it a third time
    only makes the memory pressure worse — one retry per signal, then
    fail with an actionable message.
    """
    if returncode is None or returncode >= 0:
        return False
    return -returncode not in set(seen_signals)


# ----------------------------------------------------------------------
# crash-safe filesystem primitives
# ----------------------------------------------------------------------
def atomic_write_bytes(path: Union[str, Path], data: Union[bytes, Iterable[bytes]]) -> None:
    """Write ``data`` (one buffer, or several to lay end to end) to
    ``path`` so readers see old-or-new, never half."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(
                [data] if isinstance(data, (bytes, bytearray, memoryview)) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    atomic_write_bytes(path, text.encode())


def _lock_timed_out(lock_path: str, timeout: float) -> None:
    """A lock still busy at its deadline is *never* a silent downgrade:
    warn, and let the caller continue unlocked (artifact publication is
    atomic, so the worst case is duplicated work)."""
    logger.warning(
        "lock %s busy past its %.1fs timeout; continuing unlocked",
        lock_path, timeout,
    )


@contextmanager
def file_lock(path: Union[str, Path], timeout: float = 60.0):
    """An advisory per-key lock for concurrent builders.

    ``path`` names the artifact being built; the lock itself lives in a
    sibling ``<name>.lock`` file.  Uses ``flock`` where available and
    falls back to ``O_CREAT|O_EXCL`` spinning otherwise.  Lock
    *failures* (read-only directory, exotic filesystems) degrade to
    running unlocked — the artifacts themselves are still published
    atomically, so the worst case is duplicated work, never corruption.
    A lock that stays *busy* past ``timeout`` degrades the same way,
    but is logged as a warning.
    """
    lock_path = str(path) + ".lock"
    if fcntl is not None:
        fd = None
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            logger.debug("could not lock %s; continuing unlocked", lock_path)
        if fd is not None:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        os.close(fd)
                        fd = None
                        _lock_timed_out(lock_path, timeout)
                        break
                    time.sleep(0.02)
                except OSError:
                    os.close(fd)
                    fd = None
                    logger.debug("could not lock %s; continuing unlocked", lock_path)
                    break
        try:
            yield
        finally:
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                finally:
                    os.close(fd)
        return
    # portable fallback: exclusive-create spin lock  # pragma: no cover
    deadline = time.monotonic() + timeout
    fd = None
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if time.monotonic() >= deadline:
                _lock_timed_out(lock_path, timeout)
                break
            time.sleep(0.05)
        except OSError:
            logger.debug("could not lock %s; continuing unlocked", lock_path)
            break
    try:
        yield
    finally:
        if fd is not None:
            os.close(fd)
            try:
                os.unlink(lock_path)
            except OSError:
                pass


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt artifact aside to ``<name>.corrupt``.

    Returns the quarantine path, or ``None`` when the rename failed
    (read-only directory) — callers must then build elsewhere.  The bad
    bytes are kept, not deleted, so corruption can be diagnosed later.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        logger.warning("could not quarantine corrupt artifact %s", path)
        return None
    logger.warning("quarantined corrupt artifact %s -> %s", path, target.name)
    return target


def usable_cache_dir(preferred: Union[str, Path]) -> str:
    """``preferred`` if it can be created, else a temp-dir fallback.

    An unusable ``REPRO_KERNEL_CACHE_DIR`` (missing parent, file in the
    way, no permissions) must never break compilation — artifacts have
    to land somewhere.  The downgrade is logged, never silent.
    """
    preferred = str(preferred)
    try:
        os.makedirs(preferred, exist_ok=True)
        return preferred
    except OSError as exc:
        fallback = os.path.join(tempfile.gettempdir(), "repro_kernels")
        logger.warning(
            "cache directory %s unusable (%s); falling back to %s",
            preferred, exc, fallback,
        )
        os.makedirs(fallback, exist_ok=True)
        return fallback


__all__ = [
    "logger",
    "parallel_backend",
    "supervise_mode",
    "shm_threshold",
    "fault_point",
    "reset_fault_counters",
    "signal_name",
    "toolchain_available",
    "reset_probe_cache",
    "is_transient",
    "atomic_write_bytes",
    "atomic_write_text",
    "file_lock",
    "quarantine",
    "usable_cache_dir",
]
