"""Property test: sharded execution ≡ the unsharded kernel, exactly.

The runtime corollary of Theorem 6.1, checked over random contraction
problems in four semirings (ℝ, ℕ, bool, min-plus), shard counts 1–8,
and both split kinds (free → concatenation merge, contracted →
⊕-merge).  Results must match *exactly* — to make that meaningful for
ℝ the generated data is integer-valued, so shard-reassociated float
sums are bit-identical, not merely close.

The serial executor is the oracle: the thread executor must agree with
it bit for bit (merge order is deterministic by shard index, so
scheduling cannot perturb the result).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import BOOL, FLOAT, MIN_PLUS, NAT
from repro.verification import check_shard_parity

SEMIRINGS = {
    "float": (FLOAT, st.integers(min_value=-9, max_value=9)
              .filter(lambda v: v != 0).map(float)),
    "nat": (NAT, st.integers(min_value=1, max_value=9)),
    "bool": (BOOL, st.just(True)),
    "min_plus": (MIN_PLUS, st.integers(min_value=-9, max_value=9).map(float)),
}

IJ = Schema.of(i=None, j=None)


def _entries(draw, attrs, dims, values, max_entries=24):
    keys = st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in dims))
    return draw(st.dictionaries(keys, values, max_size=max_entries))


@st.composite
def shard_problems(draw):
    """A compiled kernel + tensors + a shard count, over a random
    semiring, covering free and contracted splits."""
    sr_name = draw(st.sampled_from(sorted(SEMIRINGS)))
    semiring, values = SEMIRINGS[sr_name]
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=2, max_value=10))
    shards = draw(st.integers(min_value=1, max_value=8))
    family = draw(st.sampled_from(
        ["spmv", "emul_csr", "dot", "colmix", "matvec_sparse_out"]
    ))
    name = f"parity_{family}_{sr_name}_{n}_{m}"

    if family == "spmv":        # free split on i, dense output
        A = Tensor.from_entries(
            ("i", "j"), ("dense", "sparse"), (n, m),
            _entries(draw, "ij", (n, m), values), semiring)
        x = Tensor.from_entries(
            ("j",), ("dense",), (m,),
            {(j,): draw(values) for j in range(m)}, semiring)
        ctx = TypeContext(IJ, {"A": {"i", "j"}, "x": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
            OutputSpec(("i",), ("dense",), (n,)),
            semiring=semiring, backend="python", name=name)
        tensors = {"A": A, "x": x}
    elif family == "matvec_sparse_out":   # free split, sparse-vector output
        A = Tensor.from_entries(
            ("i", "j"), ("sparse", "sparse"), (n, m),
            _entries(draw, "ij", (n, m), values), semiring)
        x = Tensor.from_entries(
            ("j",), ("dense",), (m,),
            {(j,): draw(values) for j in range(m)}, semiring)
        ctx = TypeContext(IJ, {"A": {"i", "j"}, "x": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
            OutputSpec(("i",), ("sparse",), (n,)),
            semiring=semiring, backend="python", name=name)
        tensors = {"A": A, "x": x}
    elif family == "emul_csr":  # free split on i, CSR output
        A = Tensor.from_entries(
            ("i", "j"), ("dense", "sparse"), (n, m),
            _entries(draw, "ij", (n, m), values), semiring)
        B = Tensor.from_entries(
            ("i", "j"), ("dense", "sparse"), (n, m),
            _entries(draw, "ij", (n, m), values), semiring)
        ctx = TypeContext(IJ, {"A": {"i", "j"}, "B": {"i", "j"}})
        out_fmts = draw(st.sampled_from(
            [("dense", "sparse"), ("sparse", "sparse")]))
        kernel = compile_kernel(
            Var("A") * Var("B"), ctx, {"A": A, "B": B},
            OutputSpec(("i", "j"), out_fmts, (n, m)),
            semiring=semiring, backend="python",
            name=f"{name}_{out_fmts[0][0]}")
        tensors = {"A": A, "B": B}
    elif family == "dot":       # contracted split on j, scalar output
        u = Tensor.from_entries(
            ("j",), ("sparse",), (m,),
            _entries(draw, "j", (m,), values), semiring)
        v = Tensor.from_entries(
            ("j",), ("dense",), (m,),
            {(j,): draw(values) for j in range(m)}, semiring)
        ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
        kernel = compile_kernel(
            Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
            semiring=semiring, backend="python", name=name)
        tensors = {"u": u, "v": v}
    else:                       # colmix: contracted split on i, dense output
        A = Tensor.from_entries(
            ("i", "j"), ("dense", "sparse"), (n, m),
            _entries(draw, "ij", (n, m), values), semiring)
        u = Tensor.from_entries(
            ("i",), ("sparse",), (n,),
            _entries(draw, "i", (n,), values), semiring)
        ctx = TypeContext(IJ, {"A": {"i", "j"}, "u": {"i"}})
        kernel = compile_kernel(
            Sum("i", Var("A") * Var("u")), ctx, {"A": A, "u": u},
            OutputSpec(("j",), ("dense",), (m,)),
            semiring=semiring, backend="python", name=name)
        tensors = {"A": A, "u": u}
    return kernel, tensors, shards


def _canon(result):
    """A hashable exact form of a kernel result."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if isinstance(result, float) and math.isinf(result):
        return result
    return result


@settings(max_examples=60, deadline=None)
@given(problem=shard_problems())
def test_sharded_equals_serial_exactly(problem):
    kernel, tensors, shards = problem
    expected = _canon(kernel.execute(tensors))
    sharded = _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards))
    assert sharded == expected


@settings(max_examples=20, deadline=None)
@given(problem=shard_problems())
def test_thread_executor_matches_serial_oracle(problem):
    kernel, tensors, shards = problem
    oracle = _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards))
    threaded = _canon(kernel.run_sharded(
        tensors, executor="thread", shards=shards, workers=2))
    assert threaded == oracle


@settings(max_examples=25, deadline=None)
@given(problem=shard_problems())
def test_check_shard_parity_checker(problem):
    kernel, tensors, shards = problem
    assert check_shard_parity(kernel, tensors, shards=shards)


@settings(max_examples=15, deadline=None)
@given(problem=shard_problems())
def test_pool_executor_matches_serial_oracle(problem):
    """The pooled zero-copy path is bit-identical to the serial oracle.

    ``REPRO_SHM_THRESHOLD=0`` forces every operand and result through
    the shared-memory data plane (the generated problems are small and
    would otherwise ship inline), so this exercises export → window
    description → worker-side view reconstruction → in-place result
    adoption across all four semirings and both split kinds.
    """
    import os

    kernel, tensors, shards = problem
    oracle = _canon(kernel.run_sharded(
        tensors, executor="serial", shards=shards))
    prior = os.environ.get("REPRO_SHM_THRESHOLD")
    os.environ["REPRO_SHM_THRESHOLD"] = "0"
    try:
        pooled = _canon(kernel.run_sharded(
            tensors, executor="pool", shards=shards, workers=2))
    finally:
        if prior is None:
            os.environ.pop("REPRO_SHM_THRESHOLD", None)
        else:
            os.environ["REPRO_SHM_THRESHOLD"] = prior
    assert pooled == oracle
