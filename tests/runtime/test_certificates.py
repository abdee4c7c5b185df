"""Planner split certificates: legality derived from the stream-property
analysis, asserted again at merge time (PR 8)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler.analysis.streamprops import certify_split, refusal_reason
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data.tensor import Tensor
from repro.errors import StreamPropertyError
from repro.krelation.schema import Schema
from repro.lang.ast import Sum, Var
from repro.lang.typing import TypeContext
from repro.runtime.merge import merge_partials
from repro.runtime.planner import ShardPlan, plan_shards
from repro.semirings import FLOAT
from repro.semirings.instances import FloatSemiring
from repro.workloads import dense_vector, sparse_matrix, sparse_vector

N = 64


def _spmv_kernel():
    A = sparse_matrix(N, N, 0.2, attrs=("i", "j"),
                      formats=("dense", "sparse"), seed=1)
    x = dense_vector(N, attr="j", seed=2)
    ctx = TypeContext(Schema.of(i=None, j=None), {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, {"A": A, "x": x},
        OutputSpec(("i",), ("dense",), (N,)),
        semiring=FLOAT, backend="python", name="cert_spmv",
    )
    return kernel, {"A": A, "x": x}


def _dot_kernel():
    u = sparse_vector(N, 0.5, attr="j", seed=3)
    v = dense_vector(N, attr="j", seed=4)
    ctx = TypeContext(Schema.of(j=None), {"u": {"j"}, "v": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("u") * Var("v")), ctx, {"u": u, "v": v}, None,
        semiring=FLOAT, backend="python", name="cert_dot",
    )
    return kernel, {"u": u, "v": v}


class NonCommutativeFloat(FloatSemiring):
    """A (fictional) ⊕ without commutativity, to watch the planner and
    the merger refuse to reorder partials."""

    name = "nc_float"
    commutative_add = False


class TestCertificates:
    def test_free_split_certificate(self):
        kernel, _ = _spmv_kernel()
        cert = certify_split(kernel, "i")
        assert cert is not None
        assert cert.kind == "free"
        assert cert.requires == ()  # concatenation needs no ⊕ laws
        assert "A" in cert.outer_operands
        assert cert.semiring == "float"

    def test_contracted_split_requires_commutativity(self):
        kernel, _ = _dot_kernel()
        cert = certify_split(kernel, "j")
        assert cert is not None
        assert cert.kind == "contracted"
        assert cert.requires == ("commutative-add",)

    def test_inner_attr_refused_with_reason(self):
        kernel, _ = _spmv_kernel()
        assert certify_split(kernel, "j") is None
        reason = refusal_reason(kernel, "j")
        assert reason is not None and "inner level" in reason

    def test_plan_carries_certificate(self):
        kernel, tensors = _dot_kernel()
        plan = plan_shards(kernel, tensors, 3)
        assert plan is not None
        assert plan.certificate is not None
        assert plan.certificate.kind == plan.kind == "contracted"

    def test_noncommutative_semiring_blocks_contracted_split(self):
        """With a non-commutative ⊕ the analysis refuses the Σ-split
        statically — the planner never even proposes it."""
        kernel, _ = _dot_kernel()
        fake = SimpleNamespace(
            input_specs=kernel.input_specs,
            output=kernel.output,
            ops=SimpleNamespace(semiring=NonCommutativeFloat()),
            name="nc_dot",
        )
        assert certify_split(fake, "j") is None
        reason = refusal_reason(fake, "j")
        assert reason is not None and "not commutative" in reason


class TestMergeAssertsCertificate:
    def test_certificate_checked_at_merge(self):
        """A certificate whose law requirement the executing semiring
        cannot discharge makes the merge fail loudly."""
        kernel, tensors = _dot_kernel()
        plan = plan_shards(kernel, tensors, 2)
        assert plan is not None and plan.certificate is not None
        bad = SimpleNamespace(
            ops=SimpleNamespace(semiring=NonCommutativeFloat()),
            output=kernel.output,
        )
        with pytest.raises(StreamPropertyError, match="commutative"):
            merge_partials(bad, plan, [1.0, 2.0])

    def test_uncertified_contracted_merge_guarded(self):
        """Even a hand-built plan with no certificate is refused when
        the semiring's ⊕ is not commutative."""
        kernel, _ = _dot_kernel()
        plan = ShardPlan("j", "contracted", N, ((0, N // 2), (N // 2, N)))
        assert plan.certificate is None
        bad = SimpleNamespace(
            ops=SimpleNamespace(semiring=NonCommutativeFloat()),
            output=kernel.output,
        )
        with pytest.raises(StreamPropertyError, match="uncertified"):
            merge_partials(bad, plan, [1.0, 2.0])

    def test_certified_merge_still_correct(self):
        kernel, tensors = _dot_kernel()
        plan = plan_shards(kernel, tensors, 2)
        partials = []
        for lo, hi in plan.ranges:
            from repro.runtime.planner import slice_operands

            shard = slice_operands(kernel, tensors, plan, lo, hi)
            partials.append(kernel.run(shard))
        merged = merge_partials(kernel, plan, partials)
        whole = kernel.run(tensors)
        assert np.isclose(merged, whole)
