"""Property test: the three backends (gcc, generated Python, reference
interpreter) are observationally identical on randomized kernels.

The interpreter is the run/eval semantics of §7.2; the code generators
must refine it exactly.  The sparse-output suites also run every kernel
at a one-entry reservation: the first run overflows, so it is the count
pass, and every store it makes must stay inside its guards — the check
that a compressed output's appends respect their capacity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema, ShapeError
from repro.lang import Sum, TypeContext, Var, denote
from repro.semirings import INT
from tests.strategies import (
    CSR_KERNELS, ROW_PATTERNS, SUM_N, assert_same_csr, csr_program, csr_truth,
    sparse_data, sum_programs,
)

N = 8
SCHEMA = Schema.of(i=range(N), j=range(N))


def tensor(attrs, data, formats=None):
    formats = formats or ("sparse",) * len(attrs)
    return Tensor.from_entries(attrs, formats, (N,) * len(attrs), data, INT)


EXPRS = {
    "dot": (Sum("i", Var("x") * Var("y")), None),
    "vadd": (Var("x") + Var("y"), OutputSpec(("i",), ("sparse",), (N,))),
    "vmul": (Var("x") * Var("y"), OutputSpec(("i",), ("dense",), (N,))),
}


@pytest.mark.parametrize("which", sorted(EXPRS))
@given(d1=sparse_data(("i",), max_index=N), d2=sparse_data(("i",), max_index=N))
@settings(max_examples=10, deadline=None)
def test_vector_kernels_agree(which, d1, d2):
    expr, out = EXPRS[which]
    ctx = TypeContext(SCHEMA, {"x": {"i"}, "y": {"i"}})
    x, y = tensor(("i",), d1), tensor(("i",), d2)
    tensors = {"x": x, "y": y}
    results = []
    for backend in ("interp", "python", "c"):
        kernel = compile_kernel(expr, ctx, tensors, out, backend=backend,
                                name=f"parity_{which}")
        result = kernel.run(tensors, capacity=4 * N)
        results.append(result if out is None else result.to_dict())
    assert results[0] == results[1] == results[2]


@given(dm=sparse_data(("i", "j"), max_index=N),
       dv=sparse_data(("j",), max_index=N))
@settings(max_examples=10, deadline=None)
def test_spmv_kernels_agree(dm, dv):
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "v": {"j"}})
    A = tensor(("i", "j"), dm, formats=("dense", "sparse"))
    v = tensor(("j",), dv, formats=("dense",))
    tensors = {"A": A, "v": v}
    expr = Sum("j", Var("A") * Var("v"))
    out = OutputSpec(("i",), ("dense",), (N,))
    results = []
    for backend in ("interp", "python", "c"):
        kernel = compile_kernel(expr, ctx, tensors, out, backend=backend,
                                name="parity_spmv")
        results.append(kernel.run(tensors).to_dict())
    assert results[0] == results[1] == results[2]


@given(dm=sparse_data(("i", "j"), max_index=N),
       dn=sparse_data(("i", "j"), max_index=N))
@settings(max_examples=8, deadline=None)
def test_matrix_add_kernels_agree(dm, dn):
    ctx = TypeContext(SCHEMA, {"A": {"i", "j"}, "B": {"i", "j"}})
    A = tensor(("i", "j"), dm)
    B = tensor(("i", "j"), dn)
    tensors = {"A": A, "B": B}
    out = OutputSpec(("i", "j"), ("sparse", "sparse"), (N, N))
    results = []
    for backend in ("interp", "python", "c"):
        kernel = compile_kernel(Var("A") + Var("B"), ctx, tensors, out,
                                backend=backend, name="parity_madd")
        results.append(kernel.run(tensors, capacity=4 * N * N).to_dict())
        # one row and one entry reserved: an overflowing run is the count pass
        assert kernel.run(tensors, capacity=1).to_dict() == results[-1], backend
    assert results[0] == results[1] == results[2]


@given(prog=sum_programs(INT))
@settings(max_examples=12, deadline=None)
def test_nested_sum_kernels_agree(prog):
    """Nested sums and sums of products into a sparse vector, CSR, or
    (rank 3 has no compressed stack) dense output: the three backends
    agree with each other and with the denotation 𝒯, at a roomy
    reservation and at one entry, where the guarded appends overflow."""
    rank = len(prog.out_attrs)
    formats = {0: (), 1: ("sparse",), 2: ("dense", "sparse"), 3: ("dense",) * 3}[rank]
    if prog.out_attrs == ("j", "k"):
        # Σ_i encloses both output levels and revisits the row level j,
        # which has no workspace: CSR is refused, by name, and the
        # shape runs into a dense output instead
        csr = OutputSpec(prog.out_attrs, formats, (SUM_N,) * rank)
        with pytest.raises(ShapeError, match=r"output level 'j' \(dense\)"):
            compile_kernel(prog.expr, prog.ctx, prog.tensors, csr,
                           backend="interp", cache=False)
        formats = ("dense", "dense")
    out = OutputSpec(prog.out_attrs, formats, (SUM_N,) * rank) if rank else None
    truth = denote(prog.expr, prog.ctx, prog.krels)
    want = truth.support if rank else truth.total()
    for backend in ("interp", "python", "c"):
        kernel = compile_kernel(prog.expr, prog.ctx, prog.tensors, out,
                                backend=backend, name=f"parity_{prog.tag}")
        for capacity in (SUM_N ** 3 + 1, 1):
            result = kernel.run(prog.tensors, capacity=capacity)
            got = result.to_dict() if rank else result
            assert got == want, f"{prog.expr!r} on {backend}, capacity={capacity}"


@pytest.mark.parametrize("pattern", ROW_PATTERNS)
@pytest.mark.parametrize("which", CSR_KERNELS)
def test_csr_kernels_agree_on_empty_rows(which, pattern):
    """CSR ``add``, ``mmul`` and ``sddmm`` on operands with leading or
    trailing empty rows, or one operand empty: every backend at both
    opt levels stores 𝒯's ``pos``, ``crd`` and ``vals`` exactly — the
    row level is a dense counter that stores every ``pos`` entry
    itself, with no fill before or after it."""
    prog = csr_program(which, pattern)
    want = csr_truth(prog)
    out = OutputSpec(prog.out_attrs, ("dense", "sparse"), (8, 8))
    for backend in ("interp", "python", "c"):
        for opt_level in (0, 2):
            kernel = compile_kernel(prog.expr, prog.ctx, prog.tensors, out,
                                    backend=backend, opt_level=opt_level,
                                    name=f"parity_csr_{which}")
            got = kernel.run(prog.tensors, capacity=64)
            assert_same_csr(got, want, f"{backend} O{opt_level}")
