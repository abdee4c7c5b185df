"""Fixtures for the parallel-runtime suite.

Kernel builds are isolated into a per-test cache directory (same
discipline as the fault suite) so sharded rebuilds in worker processes
cannot collide with, or warm up from, other tests' artifacts.
"""

from __future__ import annotations

import pytest

from repro.compiler import codegen_c
from repro.compiler import kernel as kernel_mod
from repro.compiler import resilience
from repro.compiler.cache import KernelCache


@pytest.fixture(autouse=True)
def isolated_build_state(tmp_path, monkeypatch):
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(cache_dir))
    monkeypatch.setattr(codegen_c, "_CACHE", {})
    kc = KernelCache(cache_dir=cache_dir)
    monkeypatch.setattr(kernel_mod, "kernel_cache", kc)
    resilience.reset_probe_cache()
    yield
    resilience.reset_probe_cache()
    # pool workers pin the cache dir at spawn — a pool surviving into
    # the next test would read this test's (deleted) tmp directory
    from repro.runtime import pool as pool_mod

    pool_mod.shutdown_shared_pool()
