"""Property test: ``run(auto_grow=True)`` converges, bounded, exactly.

Over random CSR element-wise products in three semirings (ℝ with
integer values, ℕ, min-plus), starting from a deliberately undersized
capacity:

* the geometrically grown run returns the *serial oracle's* result,
  value for value (integer-valued ℝ keeps float sums exact);
* every retry allocation respects the ``REPRO_MAX_CAPACITY`` ceiling —
  the growth sequence never allocates past it, even on the attempt
  that fails;
* when the ceiling is below the true need, the run raises a
  :class:`~repro.errors.CapacityError` whose metadata names both
  numbers instead of looping forever.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.kernel import OutputSpec, compile_kernel
from repro.data import Tensor
from repro.errors import CapacityError
from repro.krelation import Schema
from repro.lang import TypeContext, Var
from repro.semirings import FLOAT, MIN_PLUS, NAT

SEMIRINGS = {
    "float": (FLOAT, st.integers(min_value=-9, max_value=9)
              .filter(lambda v: v != 0).map(float)),
    "nat": (NAT, st.integers(min_value=1, max_value=9)),
    "min_plus": (MIN_PLUS, st.integers(min_value=-9, max_value=9).map(float)),
}

IJ = Schema.of(i=None, j=None)


@st.composite
def grow_problems(draw):
    sr_name = draw(st.sampled_from(sorted(SEMIRINGS)))
    semiring, values = SEMIRINGS[sr_name]
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=2, max_value=8))
    keys = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=m - 1),
    )
    entries = draw(st.dictionaries(keys, values, min_size=2, max_size=30))
    A = Tensor.from_entries(("i", "j"), ("dense", "sparse"), (n, m),
                            entries, semiring)
    ctx = TypeContext(IJ, {"A": {"i", "j"}})
    kernel = compile_kernel(
        Var("A"), ctx, {"A": A},
        OutputSpec(("i", "j"), ("dense", "sparse"), (n, m)),
        semiring=semiring, backend="python",
        name=f"grow_{sr_name}_{n}_{m}", cache=False,
    )
    return kernel, {"A": A}, len(entries), semiring


def _spy_allocations(kernel):
    """Record the ``out_cap`` of every (re)allocation the run makes."""
    caps = []
    original = kernel._allocate_output

    def spy(env, cap):
        result = original(env, cap)
        caps.append(int(env.get("out_cap", 0)))
        return result

    kernel._allocate_output = spy
    return caps


def _results_equal(kernel, a, b) -> bool:
    semiring = kernel.ops.semiring
    lhs, rhs = a.to_dict(), b.to_dict()
    return lhs.keys() == rhs.keys() and all(
        semiring.eq(lhs[c], rhs[c]) for c in lhs
    )


@settings(max_examples=40, deadline=None)
@given(problem=grow_problems())
def test_auto_grow_converges_to_oracle_within_bound(problem):
    kernel, tensors, nnz, semiring = problem
    oracle = kernel._run_single(tensors)  # ample default capacity
    bound = nnz + 3  # comfortably above need, far below n*m growth room
    caps = _spy_allocations(kernel)
    os.environ["REPRO_MAX_CAPACITY"] = str(bound)
    try:
        grown = kernel.run(
            tensors, capacity=1, auto_grow=True, parallel=False,
        )
    finally:
        del os.environ["REPRO_MAX_CAPACITY"]
        del kernel.__dict__["_allocate_output"]
    assert _results_equal(kernel, oracle, grown)
    # geometric growth: capacities strictly increase, and not one
    # allocation — including the last, successful one — passes the cap
    grow_caps = caps[1:]  # caps[0] is the oracle's own allocation
    assert all(c <= bound for c in grow_caps)
    assert all(b > a for a, b in zip(grow_caps, grow_caps[1:]))


@settings(max_examples=25, deadline=None)
@given(problem=grow_problems())
def test_auto_grow_ceiling_raises_typed_error(problem):
    kernel, tensors, nnz, semiring = problem
    bound = max(1, nnz - 1)  # strictly below the true need
    caps = _spy_allocations(kernel)
    os.environ["REPRO_MAX_CAPACITY"] = str(bound)
    try:
        with pytest.raises(CapacityError) as err:
            kernel.run(tensors, capacity=1, auto_grow=True, parallel=False)
    finally:
        del os.environ["REPRO_MAX_CAPACITY"]
        del kernel.__dict__["_allocate_output"]
    assert err.value.needed is not None and err.value.needed > bound
    assert all(c <= bound for c in caps)
    assert str(bound) in str(err.value) or "auto-grow" in str(err.value)
