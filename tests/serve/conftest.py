"""Fixtures for the serving suite.

Same isolation discipline as the runtime/fault suites — per-test kernel
cache, fresh breaker state, pool teardown — plus a server factory that
guarantees every booted server is drained before the test ends.
"""

from __future__ import annotations

import weakref

import pytest

from repro.compiler import codegen_c
from repro.compiler import build as build_mod
from repro.compiler import resilience
from repro.compiler.cache import KernelCache
from repro.runtime import breaker as breaker_mod

from tests.serve.harness import ServerHarness


@pytest.fixture(autouse=True)
def isolated_build_state(tmp_path, monkeypatch):
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(cache_dir))
    monkeypatch.setattr(codegen_c, "_CACHE", weakref.WeakValueDictionary())
    kc = KernelCache(cache_dir=cache_dir)
    monkeypatch.setattr(build_mod, "kernel_cache", kc)
    resilience.reset_probe_cache()
    breaker_mod.breaker.reset()
    yield
    breaker_mod.breaker.reset()
    resilience.reset_probe_cache()
    from repro.runtime import pool as pool_mod

    pool_mod.shutdown_shared_pool()


@pytest.fixture
def make_server():
    """Factory: boot a ServerHarness, always drained at teardown."""
    from repro.serve.config import ServeConfig

    harnesses = []

    def boot(**overrides) -> ServerHarness:
        overrides.setdefault("port", 0)
        overrides.setdefault("deadline", 15.0)
        harness = ServerHarness(ServeConfig(**overrides)).start()
        harnesses.append(harness)
        return harness

    yield boot
    for harness in harnesses:
        if harness.server is not None and harness._thread.is_alive():
            try:
                harness.stop()
            except Exception:
                pass
