"""Property test: an undersized output sizes itself, exactly, in one rerun.

Over random CSR element-wise products in three semirings (ℝ with
integer values, ℕ, min-plus), starting from a reservation of one entry:

* the run returns the *serial oracle's* result, value for value
  (integer-valued ℝ keeps float sums exact);
* it allocates the output at most twice — the overflowed run counted
  the exact size, and one rerun at that size is the result.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
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
    oracle = kernel.execute(tensors)  # ample default capacity
    caps = _spy_allocations(kernel)
    try:
        grown = kernel.run(tensors, capacity=1, parallel=False,
                           supervised=False)
    finally:
        del kernel.__dict__["_allocate_output"]
    assert _results_equal(kernel, oracle, grown)
    # the reservation, then (when one entry was too few) the counted size
    assert caps[0] == 1 and len(caps) <= 2
    assert len(caps) == 1 or caps[1] == nnz
