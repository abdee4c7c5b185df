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
    # row-major storage: the outer level is the slowest-varying index,
    # so every level's arrays concatenate in shard order — the outer
    # coordinates rebased to the global frame, each deeper ``pos``
    # shifted by the entries of the shards before it
    pos, crd = {}, {}
    for k, fmt in enumerate(out.formats):
        if fmt == "dense":
            continue
        if k == 0:
            crd[0] = np.concatenate(
                [p.crd[0] + lo for p, (lo, _) in zip(partials, plan.ranges)])
            pos[0] = np.array([0, len(crd[0])], dtype=np.int64)
            continue
        spliced = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for p in partials:
            spliced.append(p.pos[k][1:] + offset)
            offset += int(p.pos[k][-1])
        pos[k] = np.concatenate(spliced)
        crd[k] = np.concatenate([p.crd[k] for p in partials])
    vals = np.concatenate([p.vals for p in partials])
    return Tensor(
        out.attrs, out.formats, out.dims, pos, crd, vals, kernel.ops.semiring)


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
    # sparse output levels: shard partials can have different coordinate
    # sets, so stack their coordinate columns and rebuild — the stable
    # sort in from_coo ⊕-folds a shared coordinate in shard order
    coords, vals = zip(*(p.to_coo() for p in partials))
    return Tensor.from_coo(
        out.attrs, out.formats, out.dims,
        np.concatenate(coords), np.concatenate(vals), sr,
        dtype=vals[0].dtype,
    )
