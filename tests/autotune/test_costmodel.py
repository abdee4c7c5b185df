"""The analytic cost model: statistics, the §8.1 ordering asymmetry,
the linear-vs-galloping crossover, and output-size estimation.

The model only has to *rank* plans, so every assertion here is ordinal
(A predicted cheaper than B) or a loose sanity band — never an exact
unit count that would rot with every constant tweak.
"""

from __future__ import annotations

import math

import pytest

from repro.autotune import costmodel
from repro.autotune.costmodel import (
    OperandStats,
    estimate,
    expected_distinct,
    output_order_ok,
    output_units,
    permuted_fanouts,
    supported_output_stacks,
)
from repro.tensor.einsum import einsum
from repro.workloads import sparse_matrix, sparse_vector


def _stats(*tensors):
    return [OperandStats.from_tensor(f"t{k}", t)
            for k, t in enumerate(tensors)]


def _dims(spec_letters, tensors):
    dims = {}
    for letters, t in zip(spec_letters, tensors):
        for a, d in zip(letters, t.dims):
            dims.setdefault(a, int(d))
    return dims


# ----------------------------------------------------------------------
# per-level statistics
# ----------------------------------------------------------------------
def test_operand_stats_level_slots():
    A = sparse_matrix(50, 40, 0.1, attrs=("i", "j"), seed=1)
    s = OperandStats.from_tensor("A", A)
    # default matrix layout is ("dense", "sparse"): level 0 stores every
    # row slot, level 1 stores exactly the nonzeros
    assert s.formats == ("dense", "sparse")
    assert s.level_slots[0] == 50
    assert s.level_slots[1] == s.nnz == len(A.crd[1])
    assert s.fanout(0) == pytest.approx(50.0)
    assert s.fanout(1) == pytest.approx(s.nnz / 50.0)
    assert 0.0 < s.density(1) < 1.0


def test_signature_buckets_similar_workloads_together():
    a = OperandStats.from_tensor(
        "a", sparse_matrix(100, 100, 0.05, attrs=("i", "j"), seed=1))
    b = OperandStats.from_tensor(
        "b", sparse_matrix(100, 100, 0.05, attrs=("i", "j"), seed=99))
    assert a.signature() == b.signature()
    # an order-of-magnitude density change lands in another bucket
    c = OperandStats.from_tensor(
        "c", sparse_matrix(100, 100, 0.5, attrs=("i", "j"), seed=1))
    assert a.signature() != c.signature()


def test_expected_distinct_bounds():
    # never exceeds the space, never exceeds the ball count (for >=1),
    # monotone in the ball count
    assert expected_distinct(0, 100) == 0.0
    assert expected_distinct(10, 1) == 1.0
    prev = 0.0
    for n in (1, 10, 100, 1000, 10000):
        d = expected_distinct(n, 500)
        assert 0.0 < d <= 500.0
        assert d <= n
        assert d >= prev
        prev = d
    # sparse regime: nearly every ball lands alone
    assert expected_distinct(10, 1_000_000) == pytest.approx(10.0, rel=1e-3)


def test_permuted_fanouts_preserve_nnz():
    A = sparse_matrix(60, 60, 0.05, attrs=("i", "j"), seed=3)
    s = OperandStats.from_tensor("A", A)
    fans = permuted_fanouts(s, ("j", "i"))
    total = fans[0] * fans[1]
    assert total == pytest.approx(s.nnz, rel=0.05)


# ----------------------------------------------------------------------
# the ordering asymmetry (§8.1)
# ----------------------------------------------------------------------
def test_matmul_ordering_asymmetry():
    """For C = A·B with sparse operands, putting the contracted index
    innermost-adjacent (i, k, j) must be predicted far cheaper than an
    order that transposes an operand and walks dense rows (k, j, i)."""
    n = 400
    A = sparse_matrix(n, n, 0.01, attrs=("i", "k"), seed=5)
    B = sparse_matrix(n, n, 0.01, attrs=("k", "j"), seed=6)
    stats = _stats(A, B)
    dims = _dims((("i", "k"), ("k", "j")), (A, B))
    good = estimate(("i", "k", "j"), stats, ("i", "j"), dims)
    bad = estimate(("j", "i", "k"), stats, ("i", "j"), dims)
    assert good.units < bad.units / 5
    # the transposing order pays the repack toll explicitly
    assert bad.repack_units > 0 and good.repack_units == 0


def test_galloping_wins_only_on_skewed_merges():
    """Binary search is priced under linear only when a tiny co-stream
    drives probes into a long run; on balanced merges the two tie (and
    the tuner's stable sort then keeps linear)."""
    r, c = 50, 20000
    tiny = sparse_matrix(r, c, 2.0 / c, attrs=("i", "j"), seed=7)
    wide = sparse_matrix(r, c, 0.2, attrs=("i", "j"), seed=8)
    stats = _stats(tiny, wide)
    dims = _dims((("i", "j"), ("i", "j")), (tiny, wide))
    lin = estimate(("i", "j"), stats, ("i", "j"), dims, search="linear")
    gal = estimate(("i", "j"), stats, ("i", "j"), dims, search="binary")
    assert gal.units < lin.units / 3

    bal = sparse_matrix(200, 200, 0.1, attrs=("i", "j"), seed=9)
    bal2 = sparse_matrix(200, 200, 0.1, attrs=("i", "j"), seed=10)
    stats = _stats(bal, bal2)
    dims = _dims((("i", "j"), ("i", "j")), (bal, bal2))
    lin = estimate(("i", "j"), stats, ("i", "j"), dims, search="linear")
    gal = estimate(("i", "j"), stats, ("i", "j"), dims, search="binary")
    assert gal.units >= lin.units * 0.9


# ----------------------------------------------------------------------
# output-size estimation
# ----------------------------------------------------------------------
def test_out_nnz_tracks_reality_for_matmul():
    """The balls-in-bins correction: mat-mul's distinct output count
    comes from *all* leaf visits, not the per-loop product.  The
    estimate must land within a small factor of the true nnz."""
    n = 200
    A = sparse_matrix(n, n, 0.05, attrs=("i", "k"), seed=11)
    B = sparse_matrix(n, n, 0.05, attrs=("k", "j"), seed=12)
    est = estimate(("i", "k", "j"), _stats(A, B), ("i", "j"),
                   _dims((("i", "k"), ("k", "j")), (A, B)))
    C = einsum("ik,kj->ij", A, B, output_formats=("dense", "sparse"))
    true_nnz = len(C.crd[1])
    assert true_nnz / 3 <= est.out_nnz <= true_nnz * 3
    assert est.out_nnz <= n * n


def test_out_nnz_exact_for_elementwise():
    v = sparse_vector(10000, 0.01, attr="i", seed=13)
    w = sparse_vector(10000, 0.01, attr="i", seed=14)
    est = estimate(("i",), _stats(v, w), ("i",), {"i": 10000})
    true_nnz = len((v.to_dict().keys() & w.to_dict().keys()))
    assert est.out_nnz == pytest.approx(true_nnz, rel=1.0, abs=5)


def test_output_units_price_dense_by_space_sparse_by_nnz():
    dims = {"i": 1000, "j": 1000}
    dense = output_units(("dense", "dense"), ("i", "j"), dims, 50.0)
    sparse = output_units(("dense", "sparse"), ("i", "j"), dims, 50.0)
    assert dense == pytest.approx(costmodel.C_DENSE_OUT * 1e6)
    assert sparse == pytest.approx(costmodel.C_SPARSE_OUT * 50.0)
    assert sparse < dense  # at 50 entries the sparse stack must win


# ----------------------------------------------------------------------
# legality mirrors
# ----------------------------------------------------------------------
def test_output_order_ok_rejects_split_sparse_output():
    # a contracted attribute revisiting an output level *above* the
    # innermost one forces a workspace for sparse stacks (the kernel
    # layer raises); gaps before the innermost level and dense stacks
    # are always buildable
    assert not output_order_ok(("k", "i", "j"), ("i", "j"),
                               ("dense", "sparse"))
    assert output_order_ok(("k", "i", "j"), ("i", "j"), ("dense", "dense"))
    assert output_order_ok(("i", "k", "j"), ("i", "j"), ("dense", "sparse"))
    assert output_order_ok(("i", "j", "k"), ("i", "j"), ("dense", "sparse"))
    assert not output_order_ok(("i", "x", "j", "l"), ("i", "j", "l"),
                               ("dense", "sparse", "sparse"))


def test_supported_output_stacks_cover_kernel_builder():
    assert supported_output_stacks(0) == [()]
    assert ("sparse",) in supported_output_stacks(1)
    assert ("dense", "sparse") in supported_output_stacks(2)
    # rank > 2 falls back to all-dense (the only stack always legal)
    assert supported_output_stacks(3) == [("dense",) * 3]
