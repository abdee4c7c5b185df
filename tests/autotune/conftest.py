"""Fixtures for the autotune suite.

Every test runs against an isolated tune-cache directory (decision
records) and a cleared shared decision-cache memo, plus the usual
per-test kernel cache — tuning state must never leak between tests or into the
rest of the suite.
"""

from __future__ import annotations

import weakref

import pytest

from repro.autotune.decisions import decision_cache
from repro.compiler import codegen_c
from repro.compiler import build as build_mod
from repro.compiler.cache import KernelCache


@pytest.fixture(autouse=True)
def isolated_tune_state(tmp_path, monkeypatch):
    kcache_dir = tmp_path / "kcache"
    tune_dir = tmp_path / "tcache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(kcache_dir))
    monkeypatch.setenv("REPRO_TUNE_CACHE_DIR", str(tune_dir))
    monkeypatch.delenv("REPRO_TUNE", raising=False)
    monkeypatch.setattr(codegen_c, "_CACHE", weakref.WeakValueDictionary())
    monkeypatch.setattr(build_mod, "kernel_cache",
                        KernelCache(cache_dir=kcache_dir))
    decision_cache.clear_memo()
    yield
    decision_cache.clear_memo()


@pytest.fixture
def tune_dir(tmp_path):
    return tmp_path / "tcache"
