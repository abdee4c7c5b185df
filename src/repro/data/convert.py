"""Conversions between tensors, K-relations, and dense nested lists."""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.data.tensor import Tensor
from repro.krelation.relation import KRelation
from repro.krelation.schema import Schema
from repro.semirings.base import Semiring


def tensor_from_krelation(
    rel: KRelation,
    formats: Sequence[str],
    dims: Sequence[int],
    order: Optional[Sequence[str]] = None,
) -> Tensor:
    """Pack a K-relation (with integer index values) into a tensor."""
    attrs = tuple(order) if order is not None else rel.shape
    if sorted(attrs) != sorted(rel.shape):
        raise ValueError(f"order {order!r} is not a permutation of {rel.shape!r}")
    perm = [rel.shape.index(a) for a in attrs]
    support = rel.support
    coords = np.array(list(support), dtype=np.int64).reshape(len(support), len(perm))
    return Tensor.from_coo(
        attrs, formats, dims, coords[:, perm], list(support.values()), rel.semiring)


def tensor_to_krelation(tensor: Tensor, schema: Schema) -> KRelation:
    """Unpack a tensor into a K-relation over ``schema``."""
    coords, vals = tensor.to_coo()
    shape = schema.sort_shape(tensor.attrs)
    perm = [tensor.attrs.index(a) for a in shape]
    data = dict(zip(map(tuple, coords[:, perm].tolist()), vals.tolist()))
    return KRelation(schema, tensor.semiring, shape, data)


def tensor_from_dense(
    attrs: Sequence[str],
    formats: Sequence[str],
    array: np.ndarray,
    semiring: Semiring,
) -> Tensor:
    """Pack a dense numpy array, dropping zeros for sparse levels."""
    array = np.asarray(array)
    if array.ndim != len(attrs):
        raise ValueError(f"array rank {array.ndim} != {len(attrs)} attrs")
    coords = np.argwhere(array != semiring.zero)
    return Tensor.from_coo(
        attrs, formats, array.shape, coords, array[tuple(coords.T)], semiring)
