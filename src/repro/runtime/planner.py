"""Shard planning: pick a split index, balance the ranges.

A split on attribute ``a`` partitions ``a``'s range ``[0, dim_a)`` into
contiguous windows.  The plan is legal when every operand can be
restricted to a window without re-formatting:

- tensor operands that do not mention ``a`` pass through whole;
- tensor operands with ``a`` at their *outermost* level are row-block
  sliced with :meth:`repro.data.tensor.Tensor.slice_outer` (an O(rows)
  rebase over numpy views, no copies of the leaf data);
- an operand with ``a`` at an inner level, or a
  :class:`~repro.compiler.formats.FunctionInput` mentioning ``a``
  (function streams evaluate at absolute indices, slicing rebases
  them), disqualifies ``a``.

The split *kind* decides the merge:

- ``"free"``: ``a`` is the output's outermost attribute — each shard
  produces a window of the result and the merge is concatenation;
- ``"contracted"``: ``a`` does not appear in the output — each shard
  produces a full-shape partial and the merge is elementwise ⊕
  (Theorem 6.1: Σ_a is a ⊕-reduction, so it commutes with
  partitioning ``a``'s range).

An output attribute at an inner position admits neither merge and is
rejected.

Range boundaries are nnz-balanced: each sliced operand contributes its
per-outer-coordinate leaf counts (:meth:`Tensor.outer_weights`, their
running total kept with an exported operand); the planner cuts the
cumulative weight into near-equal parts instead of cutting the
coordinate range uniformly, so a power-law row distribution does not
serialize behind one dense shard.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.compiler.analysis.streamprops import (
    SplitCertificate,
    certify_split,
    refusal_reason,
)
from repro.compiler.formats import FunctionInput, TensorInput
from repro.compiler.resilience import logger
from repro.data.tensor import Tensor
from repro.runtime import shm


@dataclass(frozen=True)
class ShardPlan:
    """A legal split: attribute, kind, and the per-shard windows.

    ``certificate`` is the static legality proof the plan was derived
    from (:func:`repro.compiler.analysis.streamprops.certify_split`);
    the merger re-checks it against the executing semiring before any
    contracted ⊕-merge.  It defaults to None only for backward
    compatibility with hand-constructed plans in tests.
    """

    split_attr: str
    kind: str                       # "free" | "contracted"
    dim: int                        # full range of the split attribute
    ranges: Tuple[Tuple[int, int], ...]   # [lo, hi) per shard, covering [0, dim)
    certificate: Optional[SplitCertificate] = None

    @property
    def shards(self) -> int:
        return len(self.ranges)


def candidate_splits(kernel) -> List[Tuple[str, SplitCertificate]]:
    """All certifiable ``(attr, certificate)`` pairs, free splits first.

    Legality is no longer an ad-hoc local rule: each candidate carries
    the :class:`SplitCertificate` derived by the stream-property
    analysis (strictly monotone outermost levels may be windowed; the
    merge kind and its semiring-law requirements follow from the output
    placement).  Free splits are preferred: shard outputs are windows
    of the result (concatenation merge, shard-sized allocations)
    instead of full-shape partials that must be ⊕-reduced.
    """
    attrs: List[str] = []
    for spec in kernel.input_specs.values():
        for a in spec.attrs:
            if a not in attrs:
                attrs.append(a)
    cands = [
        (a, c) for a in attrs if (c := certify_split(kernel, a)) is not None
    ]
    cands.sort(key=lambda c: 0 if c[1].kind == "free" else 1)
    return cands


@dataclass
class _SplitProbe:
    """The minimal kernel-shaped view :func:`certify_split` inspects.

    The autotuner needs split legality *before* any kernel exists — the
    certificate analysis only reads ``input_specs``, ``output``, and
    ``ops.semiring`` (plus ``name`` for log lines), so a plain probe
    carrying those fields answers the question without a compile.
    """

    input_specs: Dict[str, object]
    output: object
    ops: object
    name: str = "probe"


def probe_splits(
    specs: Mapping[str, object], output, ops, name: str = "tuned"
) -> List[Tuple[str, SplitCertificate]]:
    """Certified split candidates for a *planned* (uncompiled) kernel."""
    probe = _SplitProbe(dict(specs), output, ops, name)
    return candidate_splits(probe)


def _attr_dim(kernel, tensors: Mapping[str, Tensor], attr: str) -> Optional[int]:
    for name, spec in kernel.input_specs.items():
        if isinstance(spec, TensorInput) and attr in spec.attrs:
            t = tensors[name]
            return int(t.dims[spec.attrs.index(attr)])
    return None


def _balanced_ranges(
    cum: np.ndarray, dim: int, shards: int
) -> Tuple[Tuple[int, int], ...]:
    """Cut ``[0, dim)`` into ≤ ``shards`` windows of near-equal weight.

    Classic balanced-cut over the *cumulative* weights ``cum``:
    ``searchsorted`` for the k/n quantile boundaries.  Boundaries
    always fall between outer coordinates (a single heavy row is never
    split), duplicate cuts and empty windows are dropped.
    """
    shards = max(1, min(int(shards), dim))
    total = int(cum[-1])
    if total == 0:
        bounds = np.linspace(0, dim, shards + 1).astype(np.int64)
    else:
        targets = (np.arange(1, shards) * total) / shards
        cuts = np.searchsorted(cum, targets, side="left") + 1
        bounds = np.concatenate(([0], cuts, [dim]))
    bounds = np.clip(bounds, 0, dim)
    ranges = [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    return tuple(ranges)


def _cum_weights(t: Tensor) -> np.ndarray:
    """Running total of :meth:`Tensor.outer_weights` — computed once
    for an exported operand, whose ``pos`` arrays can no longer change."""
    return shm.memoized(
        t, "cum_weights", lambda: np.cumsum(t.outer_weights()))


def plan_shards(
    kernel,
    tensors: Mapping[str, Tensor],
    shards: int,
    split_attr: Optional[str] = None,
) -> Optional[ShardPlan]:
    """Choose a split attribute and nnz-balanced windows.

    Returns None when no attribute qualifies (the caller degrades to a
    single-shard run).  ``split_attr`` forces a specific attribute and
    raises :class:`ValueError` when it is not splittable — an explicit
    request should fail loudly, an automatic one quietly.
    """
    if split_attr is not None:
        cert = certify_split(kernel, split_attr)
        if cert is None:
            raise ValueError(
                f"attribute {split_attr!r} is not splittable for kernel "
                f"{kernel.name!r}: "
                f"{refusal_reason(kernel, split_attr)}"
            )
        cands = [(split_attr, cert)]
    else:
        cands = candidate_splits(kernel)
    for attr, cert in cands:
        dim = _attr_dim(kernel, tensors, attr)
        if dim is None or dim <= 1:
            continue
        # a sum of running totals is the running total of the sum
        cum = functools.reduce(np.add, (
            _cum_weights(tensors[name])
            for name, spec in kernel.input_specs.items()
            if isinstance(spec, TensorInput) and spec.split_kind(attr) == "outer"
        ))
        ranges = _balanced_ranges(cum, dim, shards)
        plan = ShardPlan(attr, cert.kind, dim, ranges, cert)
        logger.debug(
            "kernel %r: split on %r (%s), %d shard(s) over dim %d",
            kernel.name, attr, cert.kind, plan.shards, dim,
        )
        return plan
    return None


def slice_operands(
    kernel, tensors: Mapping[str, Tensor], plan: ShardPlan, lo: int, hi: int
) -> Dict[str, Tensor]:
    """The operand bindings for the shard covering ``[lo, hi)``."""
    shard: Dict[str, Tensor] = {}
    for name, spec in kernel.input_specs.items():
        if isinstance(spec, FunctionInput):
            continue
        t = tensors[name]
        if spec.split_kind(plan.split_attr) == "outer":
            shard[name] = t.slice_outer(lo, hi)
        else:
            shard[name] = t
    return shard
