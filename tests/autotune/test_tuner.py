"""The tuner front door: candidate enumeration, decision caching, and —
most importantly — that a tuned plan computes exactly what the untuned
plan computes.
"""

from __future__ import annotations

import pytest

from repro.autotune import tune_build, tune_einsum
from repro.autotune.tuner import MAX_ENUM_ATTRS, _candidate_orders
from repro.compiler.kernel import OutputSpec
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.tensor.einsum import einsum
from repro.workloads import dense_vector, sparse_matrix, sparse_vector


def _nonzeros(result):
    if not hasattr(result, "to_dict"):
        return result
    return {k: v for k, v in result.to_dict().items() if v != 0}


def _run_tuned(result):
    plan = result.plan()
    kernel = plan.build()
    return kernel.run(plan.inputs)


# ----------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------
def test_candidate_orders_preserve_output_order():
    orders = _candidate_orders((("i", "k"), ("k", "j")), ("i", "j"))
    assert ("i", "k", "j") in orders
    assert ("k", "i", "j") in orders
    for order in orders:
        assert order.index("i") < order.index("j")
    # 3 attrs -> 3! = 6 permutations, half keep i before j
    assert len(orders) == 3


def test_candidate_orders_cap_at_enum_limit():
    operands = (("a", "b", "c"), ("c", "d", "e"), ("e", "f"))
    output = ("a", "f")
    letters = {a for op in operands for a in op}
    assert len(letters) > MAX_ENUM_ATTRS
    assert _candidate_orders(operands, output) == [
        ("a", "b", "c", "d", "e", "f")
    ]


# ----------------------------------------------------------------------
# tuned == untuned, for every query shape the server exercises
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec,builders", [
    ("ij,j->i", lambda: (sparse_matrix(40, 40, 0.2, attrs=("i", "j"),
                                       seed=1),
                         dense_vector(40, attr="j", seed=2))),
    ("ik,kj->ij", lambda: (sparse_matrix(30, 30, 0.2, attrs=("i", "k"),
                                         seed=3),
                           sparse_matrix(30, 30, 0.2, attrs=("k", "j"),
                                         seed=4))),
    ("i,i->", lambda: (sparse_vector(200, 0.3, attr="i", seed=5),
                       sparse_vector(200, 0.3, attr="i", seed=6))),
    ("ij,ij->ij", lambda: (sparse_matrix(25, 25, 0.3, attrs=("i", "j"),
                                         seed=7),
                           sparse_matrix(25, 25, 0.3, attrs=("i", "j"),
                                         seed=8))),
])
def test_tuned_plan_matches_untuned_result(spec, builders):
    tensors = builders()
    result = tune_einsum(spec, *tensors)
    reference = einsum(spec, *tensors)
    tuned = _run_tuned(result)
    if hasattr(reference, "to_dict"):
        assert _nonzeros(tuned) == pytest.approx(_nonzeros(reference))
    else:
        assert tuned == pytest.approx(reference)


# ----------------------------------------------------------------------
# the decision cache in the loop
# ----------------------------------------------------------------------
def test_second_tune_is_a_cache_hit_and_same_decision():
    A = sparse_matrix(40, 40, 0.2, attrs=("i", "j"), seed=9)
    x = dense_vector(40, attr="j", seed=10)
    first = tune_einsum("ij,j->i", A, x)
    assert first.cache == "miss"
    assert first.considered > 1
    again = tune_einsum("ij,j->i", A, x)
    assert again.cache == "hit"
    assert again.decision == first.decision
    assert again.signature == first.signature


def test_signature_buckets_fresh_data_of_same_shape():
    """A restarted client sending statistically identical traffic must
    reuse the warm decision — the signature buckets, not fingerprints."""
    a1 = sparse_matrix(64, 64, 0.05, attrs=("i", "j"), seed=11)
    a2 = sparse_matrix(64, 64, 0.05, attrs=("i", "j"), seed=77)
    x1 = dense_vector(64, attr="j", seed=12)
    x2 = dense_vector(64, attr="j", seed=78)
    first = tune_einsum("ij,j->i", a1, x1)
    second = tune_einsum("ij,j->i", a2, x2)
    assert second.signature == first.signature
    assert second.cache == "hit"


def test_explain_payload_is_complete():
    A = sparse_matrix(40, 40, 0.2, attrs=("i", "j"), seed=15)
    x = dense_vector(40, attr="j", seed=16)
    result = tune_einsum("ij,j->i", A, x)
    info = result.explain()
    assert info["cache"] == "miss"
    assert info["considered"] == result.considered
    assert info["candidates"], "explain must list scored candidates"
    for c in info["candidates"]:
        assert {"order", "output_formats", "search", "units"} <= set(c)
    assert info["decision"]["search"] in ("linear", "binary")


# ----------------------------------------------------------------------
# the builder path (order fixed by the TypeContext)
# ----------------------------------------------------------------------
def test_tune_build_searches_only_open_knobs():
    n = 40
    A = sparse_matrix(n, n, 0.2, attrs=("i", "j"), seed=21)
    x = dense_vector(n, attr="j", seed=22)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (n,))
    result = tune_build(expr, ctx, {"A": A, "x": x}, out, semiring=FLOAT)
    assert result.cache == "miss"
    # ordering and output stack are the caller's: never overridden here
    assert result.decision.order is None
    assert result.decision.output_formats is None
    assert result.decision.search in ("linear", "binary")
    again = tune_build(expr, ctx, {"A": A, "x": x}, out, semiring=FLOAT)
    assert again.cache == "hit"
