"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro import config
from repro.compiler import kernel as kernel_mod
from repro.krelation import KRelation, Schema
from repro.semirings import BOOL, FLOAT, INT, MAX_PLUS, MIN_PLUS, NAT

#: what a reserved output slot holds until the kernel stores it, by dtype kind
POISON = {"f": np.nan, "i": np.iinfo(np.int64).min, "b": True}


@pytest.fixture(autouse=True, scope="session")
def poisoned_output_storage():
    """Output storage the kernel wrapper reserves uninitialised starts
    poisoned for the whole run, so every suite that runs a kernel also
    checks that it stores each slot before reading it.  It wraps the
    real allocation, so tests run on the storage a kernel gets outside
    them."""
    reserve = kernel_mod._reserve

    def poisoned(n, dtype):
        arr = reserve(n, dtype)
        arr.fill(POISON[arr.dtype.kind])
        return arr

    kernel_mod._reserve = poisoned
    yield
    kernel_mod._reserve = reserve


@pytest.fixture
def gcc_runs(monkeypatch):
    """The compiler invocations of this test, counted on ``subprocess.run``."""
    runs = []
    run = subprocess.run

    def counted(cmd, *args, **kw):
        if cmd[0] == config.get("REPRO_GCC"):
            runs.append(cmd)
        return run(cmd, *args, **kw)
    monkeypatch.setattr(subprocess, "run", counted)
    return runs


@pytest.fixture
def small_schema() -> Schema:
    """A 3-attribute schema with small finite domains (for ground truth)."""
    return Schema.of(a=range(4), b=range(4), c=range(4))


@pytest.fixture
def ijk_schema() -> Schema:
    return Schema.of(i=range(6), j=range(6), k=range(6))


ALL_SEMIRINGS = [BOOL, NAT, INT, FLOAT, MIN_PLUS, MAX_PLUS]


def assert_krel_equal(got: KRelation, want: KRelation, msg: str = "") -> None:
    assert got.equal(want), (
        f"{msg}\n got: {sorted(got.support.items())}\nwant: {sorted(want.support.items())}"
    )


def sorting_programs(n: int = 12):
    """Two programs whose sparse outputs drain a workspace through
    ``PSort`` — a CSR × CSR matmul and the column sums of a DCSR
    matrix — as ``(name, expr, ctx, tensors, output)``."""
    from repro.compiler.kernel import OutputSpec
    from repro.lang import Sum, TypeContext, Var
    from repro.workloads import sparse_matrix

    schema = Schema.of(i=range(n), j=range(n), k=range(n))
    A = sparse_matrix(n, n, 0.4, attrs=("i", "j"), seed=10)
    B = sparse_matrix(n, n, 0.4, attrs=("j", "k"), seed=11)
    X = sparse_matrix(n, n, 0.3, attrs=("i", "j"), formats=("sparse", "sparse"), seed=7)
    return [
        ("mmul", Sum("j", Var("A") * Var("B")),
         TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}}), {"A": A, "B": B},
         OutputSpec(("i", "k"), ("dense", "sparse"), (n, n))),
        ("colsum", Sum("i", Var("X")), TypeContext(schema, {"X": {"i", "j"}}), {"X": X},
         OutputSpec(("j",), ("sparse",), (n,))),
    ]


def bench_kernel(cell: str, name: str, backend: str = "interp"):
    """A program of the benchmark (``bench/``: the ``lib_kernel`` cells
    and ``tpch_q5`` / ``tpch_q9``) at its smoke size, built without a
    toolchain by default.  Skips when ``bench`` is not importable."""
    datagen = pytest.importorskip("bench.datagen")
    programs = pytest.importorskip("bench.programs")
    lib_kernel = pytest.importorskip("bench.workloads.lib_kernel")
    if cell.startswith("tpch_"):
        from repro.tpch import generate

        program = programs.tpch(generate(0.001, seed=1), cell[len("tpch_"):])
    else:
        build, size = lib_kernel.SMOKE[cell]
        program = build(datagen.rng_for(1, "tests", cell), **size)
    return program.compile(name, backend=backend)
