"""Fixtures for the fault-injection harness.

Every test runs against an isolated kernel-cache directory, a fresh
in-memory memo, a cleared ``.so`` load cache, and a cleared toolchain
probe cache, so injected faults cannot leak between tests (or into the
rest of the suite).  Faults are injected through the public
environment hooks — ``REPRO_GCC`` (compiler binary override),
``REPRO_GCC_TIMEOUT``, ``REPRO_BACKEND_FALLBACK``,
``REPRO_KERNEL_CACHE_DIR`` — plus direct corruption of on-disk
artifacts.
"""

from __future__ import annotations

import shutil
import weakref

import numpy as np
import pytest

from repro import config
from repro.compiler import codegen_c
from repro.compiler import build as build_mod
from repro.compiler import resilience
from repro.compiler.cache import KernelCache
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.workloads import dense_vector, sparse_matrix

N = 24

requires_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="real gcc required"
)

#: skip when the *configured* toolchain (REPRO_GCC override included)
#: is absent — the no-toolchain CI job sets REPRO_GCC to a missing path
requires_toolchain = pytest.mark.skipif(
    shutil.which(config.get("REPRO_GCC")) is None,
    reason="configured C toolchain required",
)


@pytest.fixture(autouse=True)
def isolated_build_state(tmp_path, monkeypatch):
    """Point every cache tier at a per-test directory and clear all
    process-wide memo state."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(cache_dir))
    monkeypatch.setattr(codegen_c, "_CACHE", weakref.WeakValueDictionary())
    kc = KernelCache(cache_dir=cache_dir)
    monkeypatch.setattr(build_mod, "kernel_cache", kc)
    resilience.reset_probe_cache()
    resilience.reset_fault_counters()
    yield
    resilience.reset_probe_cache()
    resilience.reset_fault_counters()
    # pool workers pin the cache dir at spawn — a pool surviving into
    # the next test would read this test's (deleted) tmp directory
    from repro.runtime import pool as pool_mod

    pool_mod.shutdown_shared_pool()


@pytest.fixture
def fresh_cache(tmp_path):
    """The per-test KernelCache installed by ``isolated_build_state``."""
    return build_mod.kernel_cache


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "kcache"


@pytest.fixture
def fake_gcc(tmp_path, monkeypatch):
    """Install a scripted stand-in for gcc via ``REPRO_GCC``."""

    def install(body: str) -> str:
        path = tmp_path / "fake_gcc.sh"
        path.write_text(f"#!/bin/sh\n{body}\n")
        path.chmod(0o755)
        monkeypatch.setenv("REPRO_GCC", str(path))
        resilience.reset_probe_cache()
        return str(path)

    return install


def spmv_problem(n: int = N, seed: int = 7):
    """An SpMV build: sparse CSR matrix × dense vector → dense vector."""
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=seed)
    x = dense_vector(n, attr="j", seed=seed + 1)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (n,))
    return ctx, expr, out, {"A": A, "x": x}


def copy_problem(n: int = N, seed: int = 9):
    """A sparse-output build (CSR copy) for capacity fault tests."""
    A = sparse_matrix(n, n, 0.3, attrs=("i", "j"), seed=seed)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}})
    expr = Var("A")
    out = OutputSpec(("i", "j"), ("dense", "sparse"), (n, n))
    return ctx, expr, out, {"A": A}


def expected_spmv(tensors, n: int = N) -> np.ndarray:
    """Dense NumPy ground truth for :func:`spmv_problem`."""
    A, x = tensors["A"], tensors["x"]
    dense = np.zeros((n, n))
    pos, crd, vals = A.pos[1], A.crd[1], A.vals
    for i in range(n):
        for p in range(int(pos[i]), int(pos[i + 1])):
            dense[i, int(crd[p])] = vals[p]
    return dense @ np.asarray(x.vals)


def repro_records(caplog):
    """All log records emitted through the ``repro`` logger."""
    return [r for r in caplog.records if r.name == "repro"]
