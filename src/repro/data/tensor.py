"""Level-format tensor storage.

The construction algorithm is the standard one: sort the coordinates
lexicographically in level order, then derive each level's pos/crd
arrays by run detection — fully vectorized with numpy.

A level's ``crd`` is 32 bits wide when its dimension fits and 64 bits
otherwise (:func:`crd_dtype`, the one place the width is decided).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.semirings.base import Semiring
from repro.semirings.instances import FLOAT

_FORMATS = ("dense", "sparse")


class Tensor:
    """An n-dimensional tensor stored by per-level formats.

    Data enters through :meth:`from_coo` and leaves through
    :meth:`to_coo`, as columns; :meth:`from_entries` and :meth:`to_dict`
    are the same two calls behind a ``{coord: value}`` dictionary — the
    specification view, which nothing on a data path goes through.

    Attributes
    ----------
    attrs:
        Attribute name per level, outermost first — the tensor's level
        order must match the global attribute ordering used by a kernel.
    formats:
        ``"dense"`` or ``"sparse"`` per level.
    dims:
        Dimension per level: a dense level's extent, a sparse level's
        coordinate bound (every ``crd[k]`` lies in ``[0, dims[k])``).
    pos, crd:
        Per sparse level ``k``: ``pos[k]`` (int64, one entry per parent
        slot + 1) and ``crd[k]``, of :func:`crd_dtype` ``(dims[k])`` —
        int32 when the dimension is below 2**31, else int64.
    vals:
        The value array (one entry per leaf slot).
    """

    def __init__(
        self,
        attrs: Sequence[str],
        formats: Sequence[str],
        dims: Sequence[int],
        pos: Mapping[int, np.ndarray],
        crd: Mapping[int, np.ndarray],
        vals: np.ndarray,
        semiring: Semiring = FLOAT,
        *,
        check: bool = True,
    ) -> None:
        """``crd`` is where coordinates enter: each level's is checked
        against its dimension (a ``ValueError`` naming the level) and
        stored at :func:`crd_dtype` — an array already at that width is
        taken without a copy.  ``check=False`` is for arrays derived
        from checked ones (a kernel's output, a slice, a merge of
        partials, a shared-memory import): they are taken as they are,
        at the width their coordinates were entered at."""
        _check_levels(attrs, formats, dims)
        self.attrs = tuple(attrs)
        self.formats = tuple(formats)
        self.dims = tuple(int(d) for d in dims)
        self.pos = {k: np.asarray(p, dtype=np.int64) for k, p in pos.items()}
        self.crd = {
            k: _entered(c, self.dims[k], k) if check else np.asarray(c)
            for k, c in crd.items()
        }
        self.vals = np.asarray(vals)
        self.semiring = semiring

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.attrs)

    @property
    def nnz(self) -> int:
        """Number of stored leaf slots (dense levels count zeros)."""
        return int(self.vals.shape[0])

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        attrs: Sequence[str],
        formats: Sequence[str],
        dims: Sequence[int],
        coords: Any,
        values: Any,
        semiring: Semiring = FLOAT,
        dtype: Optional[np.dtype] = None,
    ) -> "Tensor":
        """Build a tensor from coordinate columns — the one constructor.

        ``coords`` is an ``(n, rank)`` integer array within ``dims``, in
        any order, and ``values`` the ``n`` values beside it.  A
        coordinate that occurs once is assigned; repeats are ⊕-folded
        in input order (the sort is stable).
        """
        _check_levels(attrs, formats, dims)
        rank = len(attrs)
        dims = tuple(int(d) for d in dims)
        if dtype is None:
            dtype = _dtype_for(semiring)
        values = np.asarray(values, dtype=dtype)
        n = len(values)
        # one contiguous column per level
        cols = np.ascontiguousarray(
            np.asarray(coords, dtype=np.int64).reshape(n, rank).T)
        bad = (cols.min(axis=1, initial=0) < 0) | (cols.max(axis=1, initial=-1) >= dims)
        if bad.any():
            raise ValueError(f"coordinate out of range at level {int(np.argmax(bad))}")
        # stable, outermost level = primary key
        order = np.lexsort(cols[::-1])
        cols = cols[:, order]
        values = values[order]

        pos: Dict[int, np.ndarray] = {}
        crd: Dict[int, np.ndarray] = {}
        slots = np.zeros(n, dtype=np.int64)
        parent_count = 1
        for k, ck in enumerate(cols):
            if formats[k] == "dense":
                slots = slots * dims[k] + ck
                parent_count *= dims[k]
            else:
                new_run = np.ones(n, dtype=bool)
                new_run[1:] = (slots[1:] != slots[:-1]) | (ck[1:] != ck[:-1])
                crd[k] = ck[new_run].astype(crd_dtype(dims[k]))
                counts = np.bincount(slots[new_run], minlength=parent_count)
                pos[k] = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
                slots = np.cumsum(new_run) - 1
                parent_count = len(crd[k])
        # sorted input: equal coordinates are adjacent and share a slot
        vals = np.full(parent_count, semiring.zero, dtype=dtype)
        again = np.zeros(n, dtype=bool)
        again[1:] = slots[1:] == slots[:-1]
        if not again.any():
            vals[slots] = values
        else:
            vals[slots[~again]] = values[~again]
            if semiring.np_add is not None:
                # ufunc.at applies repeats one by one, in index order
                semiring.np_add.at(vals, slots[again], values[again])
            else:
                _acc_generic(vals, slots[again], values[again], semiring)
        return cls(attrs, formats, dims, pos, crd, vals, semiring, check=False)

    @classmethod
    def from_entries(
        cls,
        attrs: Sequence[str],
        formats: Sequence[str],
        dims: Sequence[int],
        entries: Mapping[Tuple[int, ...], Any] | Iterable[Tuple[Tuple[int, ...], Any]],
        semiring: Semiring = FLOAT,
        dtype: Optional[np.dtype] = None,
    ) -> "Tensor":
        """:meth:`from_coo` over ``{(i, j, …): value}`` entries, or a
        list of such pairs (repeats are ⊕-summed in list order)."""
        items = list(entries.items() if isinstance(entries, Mapping) else entries)
        coords, values = zip(*items) if items else ((), ())
        return cls.from_coo(attrs, formats, dims, coords, values, semiring, dtype)

    # ------------------------------------------------------------------
    # shard slicing (the parallel runtime's operand partitioner)
    # ------------------------------------------------------------------
    def slice_outer(self, lo: int, hi: int) -> "Tensor":
        """Restrict the outermost level to coordinates ``[lo, hi)``.

        Returns a tensor of the same attrs/formats whose outer dimension
        is ``hi - lo`` and whose outer coordinates are rebased to the
        local window (``i`` becomes ``i - lo``).  All leaf values and
        inner coordinate arrays are numpy *slices* of this tensor's
        arrays; only the outer ``crd`` and the first sparse ``pos``
        below the cut need an O(rows) rebase.  This is the row-block
        partitioning the shard planner feeds to per-shard kernel runs.
        """
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= self.dims[0]):
            raise ValueError(
                f"slice [{lo}, {hi}) out of range for outer dimension "
                f"{self.dims[0]}"
            )
        dims = (hi - lo,) + self.dims[1:]
        pos: Dict[int, np.ndarray] = {}
        crd: Dict[int, np.ndarray] = {}
        if self.formats[0] == "dense":
            s_lo, s_hi = lo, hi
        else:
            c0 = self.crd[0]
            a = int(np.searchsorted(c0, lo, side="left"))
            b = int(np.searchsorted(c0, hi, side="left"))
            crd[0] = c0[a:b] - lo
            pos[0] = np.array([0, b - a], dtype=np.int64)
            s_lo, s_hi = a, b
        for k in range(1, self.order):
            if self.formats[k] == "dense":
                s_lo *= self.dims[k]
                s_hi *= self.dims[k]
            else:
                pk = self.pos[k]
                base = int(pk[s_lo])
                pos[k] = pk[s_lo : s_hi + 1] - base
                s_lo, s_hi = base, int(pk[s_hi])
                crd[k] = self.crd[k][s_lo:s_hi]
        vals = self.vals[s_lo:s_hi]
        return Tensor(self.attrs, self.formats, dims, pos, crd, vals,
                      self.semiring, check=False)

    def outer_weights(self) -> np.ndarray:
        """Leaf-slot count per outer *coordinate* (length ``dims[0]``).

        For CSR-style storage this is the classic per-row nnz histogram
        (``np.diff(pos[1])``); deeper level stacks chain each level's
        ``pos`` (or multiply dense dims) down to the leaves.  The shard
        planner balances these weights across shards.
        """
        d0 = self.dims[0]
        n0 = d0 if self.formats[0] == "dense" else len(self.crd[0])
        bounds = np.arange(n0 + 1, dtype=np.int64)
        for k in range(1, self.order):
            if self.formats[k] == "dense":
                bounds = bounds * self.dims[k]
            else:
                bounds = self.pos[k][bounds]
        counts = np.diff(bounds)
        if self.formats[0] == "dense":
            return counts.astype(np.int64)
        weights = np.zeros(d0, dtype=np.int64)
        weights[self.crd[0]] = counts
        return weights

    # ------------------------------------------------------------------
    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stored leaves with non-zero value, as columns: an
        ``(n, order)`` int64 array and the ``n`` values beside it, in
        storage order — which *is* lexicographic order in ``attrs``
        (every level's coordinates ascend within their parent)."""
        slots = np.flatnonzero(self.semiring.nonzero_mask(self.vals))
        vals = self.vals[slots]
        # each kept leaf's coordinates, walking back up the levels
        coords = np.empty((len(slots), self.order), dtype=np.int64)
        for k in reversed(range(self.order)):
            if self.formats[k] == "dense":
                slots, coords[:, k] = np.divmod(slots, self.dims[k])
            else:
                coords[:, k] = self.crd[k][slots]
                # the parent of child q is the last s with pos[s] <= q
                slots = np.searchsorted(self.pos[k], slots, side="right") - 1
        return coords, vals

    def to_dict(self) -> Dict[Tuple[int, ...], Any]:
        """:meth:`to_coo` as a ``{coordinate: value}`` dictionary."""
        coords, vals = self.to_coo()
        return dict(zip(map(tuple, coords.tolist()), vals.tolist()))

    def __repr__(self) -> str:
        fmts = ",".join(f"{a}:{f}" for a, f in zip(self.attrs, self.formats))
        return f"Tensor[{fmts}](dims={self.dims}, slots={self.nnz})"


def crd_dtype(dim: int) -> np.dtype:
    """The element type of a sparse level's ``crd`` over ``dim``
    coordinates: int32 when every coordinate fits, else int64.  Decided
    here and nowhere else; a kernel is compiled for the width of each
    ``crd`` it reads and of each it writes (DESIGN.md "Data plane")."""
    return np.dtype(np.int32 if dim < 2**31 else np.int64)


def _entered(crd: Any, dim: int, level: int) -> np.ndarray:
    """Level ``level``'s coordinates, checked against ``dim`` before
    they are narrowed (a cast would wrap an out-of-range one)."""
    crd = np.asarray(crd)
    if crd.size and (crd.min() < 0 or crd.max() >= dim):
        raise ValueError(
            f"coordinate out of range at level {level}: crd[{level}] spans "
            f"[{crd.min()}, {crd.max()}], the dimension is {dim}"
        )
    return crd.astype(crd_dtype(dim), copy=False)


def _check_levels(attrs, formats, dims) -> None:
    if not (len(attrs) == len(formats) == len(dims)):
        raise ValueError("attrs, formats and dims must have equal length")
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ValueError(f"unknown level format {fmt!r}")


def _acc_generic(vals, slots, values, semiring) -> None:
    for slot, v in zip(slots.tolist(), values.tolist()):
        vals[slot] = semiring.add(vals[slot], v)


def _dtype_for(semiring: Semiring):
    from repro.compiler.scalars import scalar_ops_for

    ops = scalar_ops_for(semiring)
    return {"int": np.int64, "float": np.float64, "bool": np.bool_}[ops.type]
