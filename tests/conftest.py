"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.krelation import KRelation, Schema
from repro.semirings import BOOL, FLOAT, INT, MAX_PLUS, MIN_PLUS, NAT


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


def bench_kernel(cell: str, name: str):
    """A program of the benchmark (``bench/``: the ``lib_kernel`` cells
    and ``tpch_q5`` / ``tpch_q9``) at its smoke size, built without a
    toolchain.  Skips when ``bench`` is not importable."""
    datagen = pytest.importorskip("bench.datagen")
    programs = pytest.importorskip("bench.programs")
    lib_kernel = pytest.importorskip("bench.workloads.lib_kernel")
    if cell.startswith("tpch_"):
        from repro.tpch import generate

        program = programs.tpch(generate(0.001, seed=1), cell[len("tpch_"):])
    else:
        build, size = lib_kernel.SMOKE[cell]
        program = build(datagen.rng_for(1, "tests", cell), **size)
    return program.compile(name, backend="interp")
