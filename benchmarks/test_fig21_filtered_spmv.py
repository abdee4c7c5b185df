"""Figure 21: filtered SpMV — fused tensor + relational algebra.

y(i) = Σ_j A(i,j)·x(j)·p(j) with a selection p of varying selectivity.
Because the filter fuses into the multiplication, runtime decreases
monotonically toward zero as the selectivity approaches 100%.  The
unfused comparison computes the full SpMV and filters afterwards —
its runtime is flat in the selectivity.
"""

import numpy as np
import pytest

from repro.baselines import taco
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.workloads import dense_vector, sparse_matrix

N = 20_000
DENSITY = 0.005
SELECTIVITIES = [0.0, 0.5, 0.9, 0.99, 1.0]


def predicate_tensor(selectivity: float) -> Tensor:
    rng = np.random.default_rng(7)
    keep = rng.random(N) >= selectivity
    entries = {(int(j),): 1.0 for j in np.nonzero(keep)[0]}
    return Tensor.from_entries(("j",), ("sparse",), (N,), entries, FLOAT)


@pytest.fixture(scope="module")
def inputs():
    A = sparse_matrix(N, N, DENSITY, attrs=("i", "j"),
                      formats=("dense", "sparse"), seed=1)
    x = dense_vector(N, attr="j", seed=2)
    return A, x


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_filtered_spmv_fused(benchmark, inputs, selectivity):
    A, x = inputs
    p = predicate_tensor(selectivity)
    schema = Schema.of(i=None, j=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}, "p": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x") * Var("p")), ctx,
        {"A": A, "x": x, "p": p},
        OutputSpec(("i",), ("dense",), (N,)), search="binary", name="fig21_fspmv",
    )
    benchmark(kernel.bind({"A": A, "x": x, "p": p}))


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_filtered_spmv_unfused(benchmark, inputs, selectivity):
    """The unfused plan: full SpMV (TACO kernel), then apply the filter.
    Its cost does not improve with selectivity."""
    A, x = inputs
    p = predicate_tensor(selectivity)
    xv = np.ascontiguousarray(x.vals, dtype=np.float64)
    mask = np.zeros(N)
    for (j,), v in p.to_dict().items():
        mask[j] = v

    def unfused():
        filtered = xv * mask          # materialize the filtered vector
        return taco.spmv(A, filtered)

    benchmark(unfused)
