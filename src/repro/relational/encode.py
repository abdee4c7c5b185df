"""Packing relations into level-format tensors.

Columns with arbitrary ordered values are dictionary-encoded (order
preserved), then the relation becomes a tensor over its key columns.
The tensor's value is 1 (boolean/bag presence) or a designated
*measure* column — the K-relation view where ``SUM(measure) GROUP BY
keys`` is just Σ over the non-output attributes — or a vector of
measures stacked on one more dense attribute.  Keys and values enter
:meth:`Tensor.from_coo` as columns.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.dictionary import Dictionary
from repro.data.tensor import Tensor
from repro.relational.relation import Relation
from repro.semirings.base import Semiring
from repro.semirings.instances import BOOL, FLOAT


class ColumnEncoder:
    """Shared dictionary encodings for attributes used across relations.

    Attributes that join with each other must share one dictionary, so
    equal values get equal codes; the encoder keys dictionaries by
    *attribute* name and builds each lazily from all values registered
    for it.
    """

    def __init__(self) -> None:
        self._pending: Dict[str, set] = {}
        self._dicts: Dict[str, Dictionary] = {}

    def register(self, attr: str, values) -> None:
        if attr in self._dicts:
            raise RuntimeError(f"dictionary for {attr!r} already frozen")
        self._pending.setdefault(attr, set()).update(values)

    def dictionary(self, attr: str) -> Dictionary:
        if attr not in self._dicts:
            if attr not in self._pending:
                raise KeyError(f"no values registered for attribute {attr!r}")
            self._dicts[attr] = Dictionary(self._pending.pop(attr))
        return self._dicts[attr]

    def dim(self, attr: str) -> int:
        return len(self.dictionary(attr))

    def encode(self, attr: str, value: Any) -> int:
        return self.dictionary(attr).encode(value)

    def decode(self, attr: str, code: int) -> Any:
        return self.dictionary(attr).decode(code)


def relation_to_tensor(
    rel: Relation,
    key_columns: Sequence[str],
    encoder: Optional[ColumnEncoder] = None,
    formats: Optional[Sequence[str]] = None,
    measure: Optional[Callable[[Dict[str, Any]], float]] = None,
    semiring: Optional[Semiring] = None,
    dims: Optional[Mapping[str, int]] = None,
    attr_names: Optional[Mapping[str, str]] = None,
    *,
    measures: Optional[Tuple[str, Sequence[Callable[[Dict[str, Any]], float]]]] = None,
) -> Tensor:
    """Pack a relation into a tensor over its key columns.

    * ``encoder`` — dictionary-encodes non-integer key columns; integer
      columns may instead take their dimension from ``dims``.
    * ``measure`` — a function of the row-dict giving the tensor value
      (default: 1, i.e. presence).  Rows with equal keys have their
      measures summed, which is the correct K-relation semantics for
      SUM aggregates.
    * ``measures=(attr, (f0, …, f_{m-1}))`` — instead of one measure,
      m of them stacked on one more trailing dense level ``attr`` of
      extent m: slice k is the tensor ``measure=f_k`` would give (a
      relation annotated with a vector is the same relation over one
      more attribute).
    * ``attr_names`` — rename columns to schema attributes.
    """
    if measure is not None and measures is not None:
        raise ValueError("give measure= or measures=, not both")
    attr_names = dict(attr_names or {})
    keys = list(key_columns)
    attrs = [attr_names.get(c, c) for c in keys]
    fns = [measure] if measure is not None else []
    if measures is not None:
        stack_attr, fns = measures[0], list(measures[1])
        if not fns:
            raise ValueError("measures= needs at least one row function")
    if semiring is None:
        semiring = FLOAT if fns else BOOL
    if formats is None:
        formats = ["sparse"] * len(keys)

    n = len(rel.rows)
    columns = (dict(zip(rel.columns, zip(*rel.rows))) if n
               else dict.fromkeys(rel.columns, ()))
    coords = np.empty((n, len(keys)), dtype=np.int64)
    sizes = []
    for k, (a, c) in enumerate(zip(attrs, keys)):
        book = _dictionary(encoder, a)
        coords[:, k] = _codes(columns[c], book, c)
        if dims is not None and a in dims:
            sizes.append(dims[a])
        elif book is not None:
            sizes.append(len(book))
        else:
            sizes.append(1 + int(coords[:, k].max(initial=0)))
    if fns:
        rows = (dict(zip(rel.columns, row)) for row in rel.rows)
        values = [f(row) for row in rows for f in fns]
    else:
        values = [semiring.one] * n
    if measures is None:
        return Tensor.from_coo(attrs, formats, sizes, coords, values, semiring)
    # row r's measure k is the entry (key_r, k): keys repeat m times
    m = len(fns)
    stacked = np.empty((n * m, len(keys) + 1), dtype=np.int64)
    stacked[:, :-1] = np.repeat(coords, m, axis=0)
    stacked[:, -1] = np.tile(np.arange(m), n)
    return Tensor.from_coo(attrs + [stack_attr], list(formats) + ["dense"],
                           sizes + [m], stacked, values, semiring)


def _dictionary(encoder: Optional[ColumnEncoder], attr: str) -> Optional[Dictionary]:
    if encoder is None:
        return None
    try:
        return encoder.dictionary(attr)
    except KeyError:
        return None


def _codes(values: Sequence[Any], book: Optional[Dictionary], col: str) -> List[int]:
    """A key column's codes: a value's dictionary code where ``book``
    has it, else the value itself when it is an integer (a ``bool`` is
    not one)."""
    if book is not None:
        values = [book.encode(v) if v in book else v for v in values]
    for t in set(map(type, values)):
        if not issubclass(t, (numbers.Integral, np.integer)) or issubclass(t, bool):
            bad = next(v for v in values if type(v) is t)
            raise TypeError(
                f"column {col!r} value {bad!r} needs a dictionary encoding"
            )
    return values

