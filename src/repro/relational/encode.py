"""Packing relations into level-format tensors.

Columns with arbitrary ordered values are dictionary-encoded (order
preserved), then the relation becomes a tensor over its key columns.
The tensor's value is 1 (boolean/bag presence) or a designated
*measure* column — the K-relation view where ``SUM(measure) GROUP BY
keys`` is just Σ over the non-output attributes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

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
) -> Tensor:
    """Pack a relation into a tensor over its key columns.

    * ``encoder`` — dictionary-encodes non-integer key columns; integer
      columns may instead take their dimension from ``dims``.
    * ``measure`` — a function of the row-dict giving the tensor value
      (default: 1, i.e. presence).  Rows with equal keys have their
      measures summed, which is the correct K-relation semantics for
      SUM aggregates.
    * ``attr_names`` — rename columns to schema attributes.
    """
    attr_names = dict(attr_names or {})
    keys = list(key_columns)
    attrs = [attr_names.get(c, c) for c in keys]
    if semiring is None:
        semiring = FLOAT if measure is not None else BOOL
    if formats is None:
        formats = ["sparse"] * len(keys)

    def code_of(attr: str, col: str, value: Any) -> int:
        if encoder is not None:
            try:
                return encoder.encode(attr, value)
            except KeyError:
                pass
        if isinstance(value, (int,)) and not isinstance(value, bool):
            return value
        raise TypeError(
            f"column {col!r} value {value!r} needs a dictionary encoding"
        )

    entries: Dict[Tuple[int, ...], Any] = {}
    one = semiring.one
    for row in rel.rows:
        rowd = dict(zip(rel.columns, row))
        key = tuple(code_of(a, c, rowd[c]) for a, c in zip(attrs, keys))
        val = measure(rowd) if measure is not None else one
        if key in entries:
            entries[key] = semiring.add(entries[key], val)
        else:
            entries[key] = val

    sizes = []
    for pos, (a, c) in enumerate(zip(attrs, keys)):
        if dims is not None and a in dims:
            sizes.append(dims[a])
        elif encoder is not None and _has_dict(encoder, a):
            sizes.append(encoder.dim(a))
        else:
            sizes.append(1 + max((k[pos] for k in entries), default=0))
    return Tensor.from_entries(attrs, formats, sizes, entries, semiring)


def _has_dict(encoder: ColumnEncoder, attr: str) -> bool:
    try:
        encoder.dictionary(attr)
        return True
    except KeyError:
        return False
