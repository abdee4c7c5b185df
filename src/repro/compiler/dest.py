"""Destinations for destination-passing-style compilation (Section 7.3).

``compile out v`` accumulates the value of ``v`` into ``out``
({out ↦ v} compile {out ↦ v + ⟦q⟧}).  A destination is either a scalar
accumulator or, for stream values, something that maps an index
expression to a sub-destination via :meth:`Dest.push`.

Provided destinations mirror the paper's: a scalar variable, dense
arrays (with affine offset arithmetic), and compressed (pos/crd/vals)
outputs whose upper levels append coordinates only for non-empty slices
— the per-level decomposition of Chou et al. [2018].
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler.analysis.intervals import ArrayContract
from repro.compiler.ir import (
    E,
    EAccess,
    EBinop,
    EUnop,
    EVar,
    NameGen,
    P,
    PAssign,
    PIf,
    PSeq,
    PSkip,
    PSort,
    PStore,
    PWhile,
    TBOOL,
    TINT,
    eand,
    emin,
    ilit,
)
from repro.compiler.scalars import ScalarOps


class Dest:
    """A compilation destination."""

    def store(self, value: E) -> P:
        """Accumulate a scalar expression (leaf case)."""
        raise NotImplementedError

    def push(self, index: E) -> Tuple[P, "Dest", P]:
        """Map an index expression to (pre-code, sub-destination,
        post-code); pre runs before the recursive compile of the value,
        post after it."""
        raise NotImplementedError

    def append(self, index: E, value: E) -> P:
        """``push(index)`` followed by the store of a scalar ``value``:
        what a stream's innermost level does at every index."""
        pre, sub, post = self.push(index)
        return PSeq(pre, sub.store(value), post)

    def setup(self) -> P:
        """Code emitted once before the kernel loop nest."""
        return PSkip()

    def finalize(self) -> P:
        """Code emitted once after the kernel loop nest."""
        return PSkip()

    def close_slice(self) -> P:
        """Code a parent level emits when one of its slices completes
        (no-op except for workspace destinations, which flush)."""
        return PSkip()

    def contracts(self) -> List["ArrayContract"]:
        """The capacity contracts this destination's stores must honor
        (see :mod:`repro.compiler.analysis.intervals`): only the
        capacity-managed append arrays, whose writes the emitted code
        guards by a counter-vs-capacity test.  Dimension-sized arrays
        (dense outputs, ``DensePosDest`` pos levels, workspace scratch)
        are bounded by the runtime dimension agreement that
        ``Kernel._validate_dims`` enforces instead."""
        return []


class ScalarDest(Dest):
    """Accumulate into a local variable, copied out at finalize."""

    def __init__(self, ops: ScalarOps, var: EVar, out_array: Optional[str] = None) -> None:
        self.ops = ops
        self.var = var
        self.out_array = out_array

    def store(self, value: E) -> P:
        return PAssign(self.var, self.ops.add(self.var, value))

    def setup(self) -> P:
        return PAssign(self.var, self.ops.zero)

    def finalize(self) -> P:
        if self.out_array is None:
            return PSkip()
        return PStore(self.out_array, ilit(0), self.var)


class ArraySlotDest(Dest):
    """Accumulate into ``array[slot]`` (a fixed element)."""

    def __init__(self, ops: ScalarOps, array: str, slot: E) -> None:
        self.ops = ops
        self.array = array
        self.slot = slot

    def store(self, value: E) -> P:
        cur = EAccess(self.array, self.slot, self.ops.type)
        return PStore(self.array, self.slot, self.ops.add(cur, value))


class DenseDest(Dest):
    """A dense output tensor: push extends an affine offset expression.

    ``dims`` lists the remaining dimensions (outermost first).  The
    output array must be zero-initialized by the caller.
    """

    def __init__(self, ops: ScalarOps, array: str, dims: List[E], offset: Optional[E] = None) -> None:
        self.ops = ops
        self.array = array
        self.dims = list(dims)
        self.offset = offset if offset is not None else ilit(0)

    def store(self, value: E) -> P:
        if self.dims:
            raise ValueError(f"dense destination still has {len(self.dims)} levels")
        cur = EAccess(self.array, self.offset, self.ops.type)
        return PStore(self.array, self.offset, self.ops.add(cur, value))

    def push(self, index: E) -> Tuple[P, Dest, P]:
        if not self.dims:
            raise ValueError("dense destination has no levels left")
        offset = EBinop(
            "+", EBinop("*", self.offset, self.dims[0], TINT), index, TINT
        )
        return PSkip(), DenseDest(self.ops, self.array, self.dims[1:], offset), PSkip()


class SparseLeafDest(Dest):
    """The last level of a compressed output: append (crd, val) pairs.

    In-order, strictly monotone iteration guarantees coordinates are
    appended in strictly increasing order within each slice, so the
    output is a valid compressed level without sorting or dedup.

    Writes are bounded by ``cap``; the counter keeps counting past it,
    so the kernel wrapper can detect overflow and raise instead of
    corrupting memory.  Note the count includes *candidate* entries:
    like TACO's assembly, a slot is appended whenever the output level
    is reached, even if the accumulated value ends up zero.
    """

    def __init__(self, ops: ScalarOps, crd: str, vals: str, counter: EVar, cap: E) -> None:
        self.ops = ops
        self.crd = crd
        self.vals = vals
        self.counter = counter
        self.cap = cap

    def _write(self, index: E, value: E) -> P:
        """Fill the next slot, if there is room for it."""
        return PIf(
            EBinop("<", self.counter, self.cap, TBOOL),
            PSeq(
                PStore(self.crd, self.counter, index),
                PStore(self.vals, self.counter, value),
            ),
        )

    def _bump(self) -> P:
        return PAssign(self.counter, EBinop("+", self.counter, ilit(1), TINT))

    def push(self, index: E) -> Tuple[P, Dest, P]:
        slot = emin(self.counter, EBinop("-", self.cap, ilit(1), TINT))
        sub = ArraySlotDest(self.ops, self.vals, slot)
        return self._write(index, self.ops.zero), sub, self._bump()

    def append(self, index: E, value: E) -> P:
        # a scalar lands in a slot nothing else writes: the Hoare triple
        # from {out ↦ 0} stores 0 + value = value, with no zero store,
        # no clamped slot and no read-modify-write
        return PSeq(self._write(index, value), self._bump())

    def setup(self) -> P:
        return PAssign(self.counter, ilit(0))

    def contracts(self) -> List[ArrayContract]:
        return [
            ArrayContract(self.crd, self.cap),
            ArrayContract(self.vals, self.cap),
        ]


class SparseInnerDest(Dest):
    """A non-leaf compressed output level.

    Appends its coordinate (and the child's pos entry) only when the
    recursively compiled slice produced output, so empty slices leave
    no trace — the same assembly discipline as TACO's compressed mode.
    """

    def __init__(
        self,
        ops: ScalarOps,
        ng: NameGen,
        crd: str,
        counter: EVar,
        child_pos: str,
        child: Dest,
        child_counter: EVar,
        cap: E,
    ) -> None:
        self.ops = ops
        self.ng = ng
        self.crd = crd
        self.counter = counter
        self.child_pos = child_pos
        self.child = child
        self.child_counter = child_counter
        self.cap = cap

    def push(self, index: E) -> Tuple[P, Dest, P]:
        mark = self.ng.fresh("mark")
        pre = PAssign(mark, self.child_counter)
        post = PSeq(
            self.child.close_slice(),
            PIf(
                EBinop(">", self.child_counter, mark, TBOOL),
                PSeq(
                    PIf(
                        EBinop("<", self.counter, self.cap, TBOOL),
                        PStore(self.crd, self.counter, index),
                    ),
                    PAssign(self.counter, EBinop("+", self.counter, ilit(1), TINT)),
                    PIf(
                        EBinop("<=", self.counter, self.cap, TBOOL),
                        PStore(self.child_pos, self.counter, self.child_counter),
                    ),
                ),
            ),
        )
        return pre, self.child, post

    def setup(self) -> P:
        return PSeq(
            PAssign(self.counter, ilit(0)),
            PStore(self.child_pos, ilit(0), ilit(0)),
            self.child.setup(),
        )

    def contracts(self) -> List[ArrayContract]:
        # the pos array is allocated with one extra slot (cap + 1)
        return [
            ArrayContract(self.crd, self.cap),
            ArrayContract(self.child_pos, self.cap, slack=1),
        ] + self.child.contracts()


class DensePosDest(Dest):
    """A dense output level above a compressed one (CSR's row level).

    Fills the child's pos array for every row, including rows the
    iteration skipped."""

    def __init__(
        self,
        ops: ScalarOps,
        ng: NameGen,
        dim: E,
        child_pos: str,
        child: Dest,
        child_counter: EVar,
    ) -> None:
        self.ops = ops
        self.ng = ng
        self.dim = dim
        self.child_pos = child_pos
        self.child = child
        self.child_counter = child_counter
        self.row = ng.fresh("row")

    def _fill_to(self, bound: E) -> P:
        return PWhile(
            EBinop("<", self.row, bound, TBOOL),
            PSeq(
                PAssign(self.row, EBinop("+", self.row, ilit(1), TINT)),
                PStore(self.child_pos, self.row, self.child_counter),
            ),
        )

    def push(self, index: E) -> Tuple[P, Dest, P]:
        # close out rows before `index`, then close `index`'s row after
        # its slice is computed
        pre = self._fill_to(index)
        post = PSeq(
            self.child.close_slice(),
            PAssign(self.row, EBinop("+", index, ilit(1), TINT)),
            PStore(self.child_pos, self.row, self.child_counter),
        )
        return pre, self.child, post

    def setup(self) -> P:
        return PSeq(
            PAssign(self.row, ilit(0)),
            PStore(self.child_pos, ilit(0), ilit(0)),
            self.child.setup(),
        )

    def finalize(self) -> P:
        # the child has nothing left to do: the last row's push closed
        # its slice, like every row's
        return self._fill_to(self.dim)

    def contracts(self) -> List[ArrayContract]:
        # child_pos is sized by the level dimension, not a capacity
        return self.child.contracts()


class WorkspaceLeafDest(Dest):
    """A dense workspace in front of a compressed leaf level.

    When a contraction loop encloses the output's last level (e.g. the
    linear-combination-of-rows matmul), coordinates arrive out of order
    and may repeat; appending directly would corrupt the compressed
    output.  This destination accumulates each slice into a dense
    scratch array while recording the touched coordinates, then — when
    the parent closes the slice — sorts the touched list, appends the
    (coordinate, value) pairs to the compressed leaf, and resets only
    the touched entries.  This is exactly the workspace optimization of
    Kjolstad et al. [2019], which the paper notes indexed streams can
    express (Section 9).

    Scratch arrays (``ws_vals``, ``ws_mask``, and ``ws_list``, of twice
    the size: its upper half is the sort's scratch) are sized by the
    level dimension and supplied by the kernel wrapper.
    """

    def __init__(
        self,
        ops: ScalarOps,
        ng: NameGen,
        crd: str,
        vals: str,
        counter: EVar,
        ws_vals: str,
        ws_mask: str,
        ws_list: str,
        cap: E,
    ) -> None:
        self.ops = ops
        self.ng = ng
        self.crd = crd
        self.vals = vals
        self.counter = counter
        self.ws_vals = ws_vals
        self.ws_mask = ws_mask
        self.ws_list = ws_list
        self.cap = cap
        self.touched = ng.fresh("wsn")

    def push(self, index: E) -> Tuple[P, Dest, P]:
        pre = PIf(
            EBinop("==", EAccess(self.ws_mask, index, TINT), ilit(0), TBOOL),
            PSeq(
                PStore(self.ws_mask, index, ilit(1)),
                PStore(self.ws_list, self.touched, index),
                PAssign(self.touched, EBinop("+", self.touched, ilit(1), TINT)),
                PStore(self.ws_vals, index, self.ops.zero),
            ),
        )
        sub = ArraySlotDest(self.ops, self.ws_vals, index)
        return pre, sub, PSkip()

    def setup(self) -> P:
        return PSeq(PAssign(self.counter, ilit(0)), PAssign(self.touched, ilit(0)))

    def close_slice(self) -> P:
        t = self.ng.fresh("wst")
        c = self.ng.fresh("wsc")
        flush_one = PSeq(
            PAssign(c, EAccess(self.ws_list, t, TINT)),
            PIf(
                EBinop("<", self.counter, self.cap, TBOOL),
                PSeq(
                    PStore(self.crd, self.counter, c),
                    PStore(
                        self.vals, self.counter,
                        EAccess(self.ws_vals, c, self.ops.type),
                    ),
                ),
            ),
            PAssign(self.counter, EBinop("+", self.counter, ilit(1), TINT)),
            PStore(self.ws_mask, c, ilit(0)),
        )
        return PSeq(
            PSort(self.ws_list, self.touched),
            PAssign(t, ilit(0)),
            PWhile(
                EBinop("<", t, self.touched, TBOOL),
                PSeq(flush_one, PAssign(t, EBinop("+", t, ilit(1), TINT))),
            ),
            PAssign(self.touched, ilit(0)),
        )

    def finalize(self) -> P:
        # only the top level is finalized: a workspace that is one (a
        # vector output) closes its single slice here
        return self.close_slice()

    def contracts(self) -> List[ArrayContract]:
        # ws_vals/ws_mask/ws_list are dimension-sized scratch, and the
        # flush loop guards its crd/vals appends by the capacity
        return [
            ArrayContract(self.crd, self.cap),
            ArrayContract(self.vals, self.cap),
        ]
