"""Analytic cost model over candidate contraction plans.

The model predicts *abstract work units* for one fused loop nest from
the same per-level statistics the shard planner already reads off a
:class:`~repro.data.tensor.Tensor` (slot counts per level, hence
average fanout and density per level).  The model only has to rank
plans: :data:`PER_OP_S` turns units into the forecast a decision
reports, one fixed constant per backend, never a measured one.

The estimator walks a candidate attribute ordering outermost-in and
propagates two quantities:

* ``n_ctx`` — how many times the loop at this depth is entered (the
  product of the expected intersection sizes of the enclosing loops);
* ``isect`` — the expected number of coordinates surviving the
  intersection at this depth: ``dim · ∏_T (m_T / dim)`` over the
  participating operands (independent-support approximation), clamped
  to the smallest participant.

Each participating operand is charged its scan cost per entry into the
level: a dense level is *located* (cost ∝ intersection size), a sparse
level under linear search streams its whole run (cost ∝ ``m_T``), and
a sparse level under galloping binary search costs
``min(m_T, (min_other+1) · C_BINARY · log2 m_T)`` where ``min_other``
is the smallest co-stream at the level — galloping pays off only on
skewed merges, matching the measured crossover in ``BENCH`` fig17.

This reproduces the §8.1 ordering asymmetry analytically: for C = A·B
with sparse matrices, the ``(i, k, j)`` nest costs ≈ nnz(A)·k while
``(i, j, k)`` costs ≈ n²·k scans — orders of magnitude apart on skewed
sparsity, which is exactly what the enumerator needs to see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.data.tensor import Tensor

#: galloping search constant: per-probe cost relative to one linear step
C_BINARY = 3.0
#: per-entry cost of a repack() materialization (Python dict round-trip)
C_REPACK = 60.0
#: per-cell cost of allocating/zeroing a dense output level
C_DENSE_OUT = 0.25
#: per-entry cost of appending through a sparse output destination
C_SPARSE_OUT = 2.0
#: seconds per unit, per backend, for a decision's ``predicted_s``
#: (rough orders of magnitude for a scalar C loop step vs interpreted
#: Python); a forecast to report, never an input to a decision
PER_OP_S = {"c": 4e-9, "python": 4e-7, "interp": 2e-6}

@dataclass(frozen=True)
class OperandStats:
    """Per-level structure statistics of one operand tensor."""

    name: str
    attrs: Tuple[str, ...]
    formats: Tuple[str, ...]
    dims: Tuple[int, ...]
    #: stored slots per level (dense level: parent · dim; sparse: |crd|)
    level_slots: Tuple[int, ...]

    @property
    def nnz(self) -> int:
        return self.level_slots[-1] if self.level_slots else 1

    @classmethod
    def from_tensor(cls, name: str, t: Tensor) -> "OperandStats":
        slots: List[int] = []
        parent = 1
        for k, fmt in enumerate(t.formats):
            parent = parent * t.dims[k] if fmt == "dense" else len(t.crd[k])
            slots.append(int(parent))
        return cls(name, t.attrs, t.formats, t.dims, tuple(slots))

    def fanout(self, level: int) -> float:
        """Average branching factor of ``level`` (children per parent)."""
        parent = self.level_slots[level - 1] if level > 0 else 1
        if parent <= 0:
            return 0.0
        return self.level_slots[level] / parent

    def density(self, level: int) -> float:
        d = self.dims[level]
        return self.fanout(level) / d if d > 0 else 1.0

    def signature(self) -> Tuple:
        """Bucketed shape/sparsity signature (log2 dims + densities)."""
        return (
            self.attrs,
            self.formats,
            tuple(_log2_bucket(d) for d in self.dims),
            tuple(_density_bucket(self.density(k)) for k in range(len(self.attrs))),
        )


def _log2_bucket(n: int) -> int:
    return int(math.log2(n)) if n > 0 else -1


def _density_bucket(d: float) -> int:
    """Half-decade density buckets; exact 1.0 (dense) is its own bucket."""
    if d >= 1.0:
        return 0
    if d <= 0.0:
        return -99
    return int(math.floor(2.0 * math.log10(d)))


def expected_distinct(entries: float, space: float) -> float:
    """E[#occupied bins] after throwing ``entries`` balls into ``space``
    bins uniformly — the standard estimate for distinct coordinate
    prefixes of a repacked operand."""
    if space <= 1.0:
        return 1.0
    if entries <= 0:
        return 0.0
    # space * (1 - (1 - 1/space)^entries), computed stably
    return space * -math.expm1(entries * math.log1p(-1.0 / space))


def permuted_fanouts(
    stats: OperandStats, attrs: Sequence[str]
) -> List[float]:
    """Expected per-level fanouts of ``stats`` repacked to ``attrs``.

    The exact level statistics describe the *stored* order only; for a
    candidate ordering that transposes the operand we estimate each
    level's expected distinct-prefix count with the uniform-support
    formula and derive fanouts from consecutive ratios.
    """
    entries = float(stats.nnz)
    fanouts: List[float] = []
    prefixes = 1.0
    space = 1.0
    for a in attrs:
        space *= stats.dims[stats.attrs.index(a)]
        nxt = min(expected_distinct(entries, space), entries if entries else 1.0)
        nxt = max(nxt, 1e-9)
        fanouts.append(nxt / prefixes)
        prefixes = nxt
    return fanouts


@dataclass(frozen=True)
class CostEstimate:
    """The model's verdict on one candidate loop nest."""

    units: float
    loop_counts: Tuple[float, ...]
    out_nnz: float
    repack_units: float = 0.0
    output_units: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "units": round(self.units, 1),
            "out_nnz": round(self.out_nnz, 1),
            "repack_units": round(self.repack_units, 1),
            "output_units": round(self.output_units, 1),
        }


@dataclass
class _Walker:
    """One operand's position while the estimator walks an ordering."""

    stats: OperandStats
    attrs: Tuple[str, ...]        # operand levels in the candidate order
    formats: Tuple[str, ...]
    fanouts: List[float]
    repacked: bool
    level: int = 0


def _conformed(stats: OperandStats, order: Sequence[str]) -> _Walker:
    """The operand's level view under ``order`` (repacked if needed)."""
    want = tuple(a for a in order if a in stats.attrs)
    if want == stats.attrs:
        fanouts = [stats.fanout(k) for k in range(len(stats.attrs))]
        return _Walker(stats, stats.attrs, stats.formats, fanouts, False)
    perm_formats = tuple(
        stats.formats[stats.attrs.index(a)] for a in want
    )
    return _Walker(stats, want, perm_formats,
                   permuted_fanouts(stats, want), True)


def estimate(
    order: Sequence[str],
    operands: Sequence[OperandStats],
    output_attrs: Sequence[str],
    dims: Mapping[str, int],
    *,
    search: str = "linear",
) -> CostEstimate:
    """Predicted work units for the loop nest induced by ``order``."""
    walkers = [_conformed(s, order) for s in operands]
    repack_units = sum(
        C_REPACK * w.stats.nnz * len(w.stats.attrs)
        for w in walkers if w.repacked
    )

    out_set = set(output_attrs)
    n_ctx = 1.0
    out_ctx = 1.0
    units = repack_units
    loop_counts: List[float] = []
    for attr in order:
        dim = float(dims.get(attr, 1) or 1)
        parts = [w for w in walkers if w.level < len(w.attrs)
                 and w.attrs[w.level] == attr]
        if not parts:
            loop_counts.append(1.0)
            continue
        streams: List[Tuple[float, str]] = []
        for w in parts:
            m = min(max(w.fanouts[w.level], 0.0), dim)
            streams.append((m, w.formats[w.level]))
            w.level += 1
        isect = dim
        for m, _ in streams:
            isect *= m / dim if dim > 0 else 0.0
        isect = min(isect, min(m for m, _ in streams))
        isect = max(isect, 0.0)

        scan = 0.0
        for idx, (m, fmt) in enumerate(streams):
            if fmt == "dense":
                scan += isect          # located: probe only at hits
                continue
            if search == "binary":
                # each element of the smallest co-stream triggers at
                # most one gallop into this one — on balanced merges
                # that degenerates to ≥ linear and linear wins the tie
                others = [om for k, (om, _) in enumerate(streams) if k != idx]
                drivers = min(others) if others else isect
                gallop = (drivers + 1.0) * C_BINARY * math.log2(m + 2.0)
                scan += min(m, gallop)
            else:
                scan += m              # linear merge walks the run
        units += n_ctx * (scan + isect)
        loop_counts.append(isect)
        n_ctx *= max(isect, 1e-9)
        if attr in out_set:
            out_ctx *= max(isect, 1e-9)

    if output_attrs:
        # distinct output coordinates come from *all* leaf visits: a
        # contracted loop nested between output attrs re-runs the inner
        # output loops, so the naive per-loop product (out_ctx) can be
        # an order of magnitude low for e.g. mat-mul.  Balls-in-bins
        # over the total visit count corrects that; when nothing is
        # contracted every visit is a distinct coordinate and out_ctx
        # itself is exact (and larger).
        space = 1.0
        for a in output_attrs:
            space *= float(dims.get(a, 1) or 1)
        out_nnz = min(max(out_ctx, expected_distinct(n_ctx, space)), space)
    else:
        out_nnz = 1.0
    return CostEstimate(units, tuple(loop_counts), out_nnz,
                        repack_units=repack_units)


def supported_output_stacks(rank: int) -> List[Tuple[str, ...]]:
    """Output format stacks the destination builder can emit."""
    if rank == 0:
        return [()]
    if rank == 1:
        return [("dense",), ("sparse",)]
    if rank == 2:
        return [("dense", "dense"), ("dense", "sparse"),
                ("sparse", "sparse")]
    return [("dense",) * rank]


def output_order_ok(
    order: Sequence[str],
    output_attrs: Sequence[str],
    formats: Sequence[str],
) -> bool:
    """Mirror of the kernel layer's workspace legality rule: a sparse
    output stack is buildable under ``order`` only when no contracted
    attribute separates two consecutive output attributes *above* the
    innermost output level (``_workspace_needed`` raises otherwise).
    """
    if not output_attrs or all(f == "dense" for f in formats):
        return True
    out_set = set(output_attrs)
    positions = [list(order).index(a) for a in output_attrs]
    prev = -1
    revisited = []
    for p in positions:
        revisited.append(
            any(order[k] not in out_set for k in range(prev + 1, p))
        )
        prev = p
    return not any(revisited[:-1])


def footprint_bytes(
    order: Sequence[str],
    operands: Sequence[OperandStats],
    output_attrs: Sequence[str],
    output_formats: Sequence[str],
    dims: Mapping[str, int],
    *,
    itemsize: int = 8,
    search: str = "linear",
) -> float:
    """Predicted resident bytes of one materialized result.

    The memory governor and the serve layer's memory-aware admission
    size a query by its *output*, the quantity that actually
    accumulates across shard partials: a dense output costs its full
    cell count, a sparse output ``out_nnz`` values plus coordinate
    bookkeeping (one int64 crd plus amortized pos per entry).  Operand
    footprints are deliberately excluded — operands are already
    resident in the caller, admission cannot un-spend them.
    """
    if not output_attrs:
        return float(itemsize)
    if all(f == "dense" for f in output_formats):
        size = 1.0
        for a in output_attrs:
            size *= float(dims.get(a, 1) or 1)
        return size * itemsize
    est = estimate(order, operands, output_attrs, dims, search=search)
    # value + crd (8 bytes) + amortized pos (8 bytes) per stored entry
    return est.out_nnz * (itemsize + 16.0)


def output_units(
    formats: Sequence[str],
    output_attrs: Sequence[str],
    dims: Mapping[str, int],
    out_nnz: float,
) -> float:
    """Allocation + append cost of materializing the result."""
    if not output_attrs:
        return 0.0
    if all(f == "dense" for f in formats):
        size = 1.0
        for a in output_attrs:
            size *= float(dims.get(a, 1) or 1)
        return C_DENSE_OUT * size
    return C_SPARSE_OUT * out_nnz


__all__ = [
    "C_BINARY",
    "C_REPACK",
    "PER_OP_S",
    "OperandStats",
    "CostEstimate",
    "estimate",
    "expected_distinct",
    "footprint_bytes",
    "permuted_fanouts",
    "supported_output_stacks",
    "output_order_ok",
    "output_units",
]
