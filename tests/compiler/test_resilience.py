"""Units for the error taxonomy and the resilience primitives."""

from __future__ import annotations

import json
import logging

import pytest

from repro.compiler import resilience
from repro.compiler.cache import KernelCache, _payload_digest
from repro.errors import (
    BackendUnavailableError,
    CacheCorruptionError,
    CapacityError,
    CompileError,
    ReproError,
    ShapeError,
)


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------
def test_taxonomy_rooted_at_repro_error():
    for exc_type in (
        CompileError, BackendUnavailableError, CacheCorruptionError,
        CapacityError, ShapeError,
    ):
        assert issubclass(exc_type, ReproError)


def test_reparented_errors_keep_legacy_bases():
    # pre-taxonomy except clauses must keep working
    assert issubclass(CapacityError, RuntimeError)
    assert issubclass(ShapeError, TypeError)
    with pytest.raises(RuntimeError):
        raise CapacityError("too small", needed=10, capacity=4)
    with pytest.raises(TypeError):
        raise ShapeError("bad shape")


def test_legacy_import_locations_still_resolve():
    from repro.compiler.kernel import CapacityError as K
    from repro.krelation.schema import ShapeError as S

    assert K is CapacityError and S is ShapeError


def test_compile_error_carries_context():
    exc = CompileError(
        "gcc exited with status 1",
        command=["gcc", "-O3"], returncode=1, stderr="x.c:1: error: boom",
    )
    assert exc.returncode == 1 and exc.command == ["gcc", "-O3"]
    assert "boom" in str(exc) and not exc.timeout


def test_capacity_error_sizing_attributes():
    exc = CapacityError("msg", needed=128, capacity=16)
    assert exc.needed == 128 and exc.capacity == 16


# ----------------------------------------------------------------------
# toolchain probe
# ----------------------------------------------------------------------
def test_toolchain_probe_cached_and_refreshable(monkeypatch):
    monkeypatch.setenv("REPRO_GCC", "/definitely/not/a/compiler")
    resilience.reset_probe_cache()
    assert not resilience.toolchain_available()
    monkeypatch.setenv("REPRO_GCC", "sh")  # always on PATH
    assert resilience.toolchain_available(refresh=True)
    resilience.reset_probe_cache()


def test_is_transient_classification():
    assert resilience.is_transient(-9)  # SIGKILL: retry
    assert not resilience.is_transient(1)  # real compile error: don't
    assert not resilience.is_transient(0)
    assert not resilience.is_transient(None)


# ----------------------------------------------------------------------
# filesystem primitives
# ----------------------------------------------------------------------
def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text("old")
    resilience.atomic_write_text(target, "new contents")
    assert target.read_text() == "new contents"
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_quarantine_moves_and_preserves(tmp_path):
    bad = tmp_path / "entry.json"
    bad.write_text("corrupt bytes")
    moved = resilience.quarantine(bad)
    assert moved is not None and moved.name == "entry.json.corrupt"
    assert not bad.exists() and moved.read_text() == "corrupt bytes"


def test_quarantine_missing_file_returns_none(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert resilience.quarantine(tmp_path / "ghost") is None


def test_file_lock_excludes_and_releases(tmp_path):
    target = tmp_path / "build.so"
    with resilience.file_lock(target):
        pass  # no deadlock on sequential reuse
    with resilience.file_lock(target):
        pass


def test_usable_cache_dir_falls_back(tmp_path, caplog):
    ok = tmp_path / "fine"
    assert resilience.usable_cache_dir(ok) == str(ok)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not dir")
    with caplog.at_level(logging.WARNING, logger="repro"):
        got = resilience.usable_cache_dir(blocker / "sub")
    assert got != str(blocker / "sub")
    assert any("unusable" in r.message for r in caplog.records)


# ----------------------------------------------------------------------
# checksummed cache envelope
# ----------------------------------------------------------------------
def test_payload_digest_is_order_insensitive():
    assert _payload_digest({"a": 1, "b": 2}) == _payload_digest({"b": 2, "a": 1})
    assert _payload_digest({"a": 1}) != _payload_digest({"a": 2})


def test_load_payload_rejects_checksum_mismatch(tmp_path, caplog):
    kc = KernelCache(cache_dir=tmp_path)
    kc.store_payload("k" * 64, {"backend": "python", "source": "x = 1"})
    [path] = list(tmp_path.glob("kmeta_*.json"))
    record = json.loads(path.read_text())
    record["payload"]["source"] = "x = 2"
    path.write_text(json.dumps(record))
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert kc.load_payload("k" * 64) is None
    assert list(tmp_path.glob("kmeta_*.json.corrupt"))
    assert any("checksum" in r.message for r in caplog.records)


def test_load_payload_round_trip(tmp_path):
    kc = KernelCache(cache_dir=tmp_path)
    kc.store_payload("a" * 64, {"backend": "python", "source": "def k(): pass"})
    got = kc.load_payload("a" * 64)
    assert got is not None and got["source"] == "def k(): pass"
    assert kc.stats.disk_hits == 1


def test_invalidate_payload_quarantines(tmp_path):
    kc = KernelCache(cache_dir=tmp_path)
    kc.store_payload("b" * 64, {"backend": "python", "source": "pass"})
    kc.invalidate_payload("b" * 64)
    assert not list(tmp_path.glob("kmeta_*.json"))
    assert list(tmp_path.glob("kmeta_*.json.corrupt"))
    assert kc.load_payload("b" * 64) is None


# ----------------------------------------------------------------------
# signal-aware compile failures (PR 5)
# ----------------------------------------------------------------------
def test_compile_error_records_signal_name():
    err = CompileError("cc died", returncode=-9)
    assert err.signal == 9
    assert err.signal_name == "SIGKILL"
    err = CompileError("cc died", returncode=-11)
    assert err.signal == 11
    assert err.signal_name == "SIGSEGV"


def test_compile_error_no_signal_for_plain_exits():
    err = CompileError("cc failed", returncode=1)
    assert err.signal is None and err.signal_name is None
    err = CompileError("cc failed")
    assert err.signal is None and err.signal_name is None


def test_is_transient_stops_on_repeated_signal():
    # first SIGKILL: worth one retry
    assert resilience.is_transient(-9, seen_signals=())
    # the retry died by the same signal: deterministic, stop
    assert not resilience.is_transient(-9, seen_signals={9})
    # a *different* signal is a fresh (possibly transient) condition
    assert resilience.is_transient(-11, seen_signals={9})
    # positive statuses are never transient regardless of history
    assert not resilience.is_transient(1, seen_signals={9})


def test_signal_name_helper():
    assert resilience.signal_name(9) == "SIGKILL"
    assert resilience.signal_name(11) == "SIGSEGV"
    assert resilience.signal_name(10**6) == "SIG1000000"
