"""Semiring-correct combination of per-shard partial outputs.

Free splits (the split attribute is the output's outermost level)
partition the *result*: each shard owns the output window over its
coordinate range, and the merge concatenates — dense value blocks
back-to-back, sparse levels by rebasing the outer coordinates to the
global frame (``+ lo``) and splicing position arrays with cumulative
nnz offsets.  No value is ever combined with another, so this merge is
exact in any semiring, floating point included.

Contracted splits (the split attribute is summed away) partition the
*reduction*: each shard produces a full-shape partial and the merge is
elementwise ⊕, taken from :class:`repro.semirings.base.Semiring`
(``np_add`` when the instance exposes a ufunc, the generic scalar
fallback otherwise).  By Theorem 6.1 the contraction is a ⊕-reduction,
so re-associating it over shards is exact in every semiring; only
float ⊕ is merely associative-up-to-rounding, exactly as the paper
(and TACO) accept.
"""

from __future__ import annotations

import functools
from typing import Any, Iterable, Sequence

import numpy as np

from repro.data.tensor import Tensor
from repro.errors import ShapeError, StreamPropertyError
from repro.runtime.planner import ShardPlan


def merge_partials(kernel, plan: ShardPlan, partials: Iterable[Any]):
    """Combine shard results per the plan's split kind (a free split
    needs ``partials`` as a sequence; a contracted one reads them once).

    Asserts the plan's :class:`SplitCertificate` against the semiring
    actually executing the merge — the certificate was issued at plan
    time, and re-checking here makes the ⊕-law dependence of the
    contracted merge (commutativity: partials complete out of range
    order) a loud :class:`StreamPropertyError` instead of a silent
    wrong answer, even for hand-constructed plans.
    """
    sr = kernel.ops.semiring
    if plan.certificate is not None:
        plan.certificate.check(sr)
    elif plan.kind == "contracted" and not getattr(sr, "commutative_add", True):
        raise StreamPropertyError(
            f"uncertified contracted merge on {plan.split_attr!r}: ⊕ of "
            f"semiring {sr.name!r} is not commutative, so ⊕-combining "
            "shard partials out of range order is unsound"
        )
    if plan.kind == "free":
        return _merge_free(kernel, plan, partials)
    return _merge_contracted(kernel, partials)


# ----------------------------------------------------------------------
# free split: concatenation along the outermost output level
# ----------------------------------------------------------------------
def _merge_free(kernel, plan: ShardPlan, partials: Sequence[Tensor]) -> Tensor:
    out = kernel.output
    if out is None:
        raise ShapeError("free split is impossible for a scalar output")
    sr = kernel.ops.semiring
    fmts = out.formats
    if all(f == "dense" for f in fmts):
        # row-major storage: the outer level is the slowest-varying
        # index, so shard value blocks concatenate directly
        vals = np.concatenate([p.vals for p in partials])
        return Tensor(out.attrs, fmts, out.dims, {}, {}, vals, sr)
    if fmts == ("sparse",):
        crd = np.concatenate(
            [p.crd[0] + lo for p, (lo, _) in zip(partials, plan.ranges)]
        )
        vals = np.concatenate([p.vals for p in partials])
        pos = {0: np.array([0, len(crd)], dtype=np.int64)}
        return Tensor(out.attrs, fmts, out.dims, pos, {0: crd}, vals, sr, check=False)
    if fmts == ("dense", "sparse"):
        pos1 = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for p in partials:
            pos1.append(p.pos[1][1:] + offset)
            offset += int(p.pos[1][-1])
        crd1 = np.concatenate([p.crd[1] for p in partials])
        vals = np.concatenate([p.vals for p in partials])
        return Tensor(
            out.attrs, fmts, out.dims,
            {1: np.concatenate(pos1)}, {1: crd1}, vals, sr, check=False,
        )
    if fmts == ("sparse", "sparse"):
        crd0 = np.concatenate(
            [p.crd[0] + lo for p, (lo, _) in zip(partials, plan.ranges)]
        )
        pos1 = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for p in partials:
            pos1.append(p.pos[1][1:] + offset)
            offset += int(p.pos[1][-1])
        crd1 = np.concatenate([p.crd[1] for p in partials])
        vals = np.concatenate([p.vals for p in partials])
        pos = {
            0: np.array([0, len(crd0)], dtype=np.int64),
            1: np.concatenate(pos1),
        }
        return Tensor(out.attrs, fmts, out.dims, pos, {0: crd0, 1: crd1}, vals, sr,
                      check=False)
    raise ShapeError(f"unsupported output formats {fmts} for shard merge")


# ----------------------------------------------------------------------
# contracted split: elementwise ⊕ of full-shape partials
# ----------------------------------------------------------------------
def _merge_contracted(kernel, partials: Iterable[Any]):
    """Left ⊕-fold of ``partials``, each read once — so the memory
    governor can pass a generator that loads spilled ones just in time."""
    sr = kernel.ops.semiring
    out = kernel.output
    if out is None:
        return functools.reduce(sr.add, partials)
    if all(f == "dense" for f in out.formats):
        vals = functools.reduce(sr.elementwise_add, (p.vals for p in partials))
        return Tensor(out.attrs, out.formats, out.dims, {}, {}, vals, sr)
    # sparse output levels: partials differ in their coordinate sets, so
    # stack each one's columns under the running result's and rebuild —
    # the stable sort in from_coo keeps the accumulator on the left of
    # ⊕, and only the output and one partial are alive at a time
    def fold(acc: Tensor, p: Tensor) -> Tensor:
        (ac, av), (pc, pv) = acc.to_coo(), p.to_coo()
        return Tensor.from_coo(
            out.attrs, out.formats, out.dims,
            np.concatenate((ac, pc)), np.concatenate((av, pv)), sr,
            dtype=av.dtype,
        )
    return functools.reduce(fold, partials)
