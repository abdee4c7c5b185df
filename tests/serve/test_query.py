"""Query canonicalization: keys before compiles, typed client errors."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings

from repro.serve.query import QueryError, _encode_result, prepare_request
from tests.data.test_tensor_properties import (
    coo_cases, coo_tensor, reference_to_dict,
)
from tests.serve.harness import einsum_query


def test_einsum_kernel_key_matches_build():
    """The admission-time key equals the key of the kernel actually
    built — the property the breaker gate stands on."""
    prepared = prepare_request(einsum_query())
    assert prepared.kernel_key is not None
    kernel = prepared.build()
    assert kernel.cache_key == prepared.kernel_key


def test_identical_bodies_coalesce_different_operands_do_not():
    a = prepare_request(einsum_query(seed=1))
    b = prepare_request(einsum_query(seed=1))
    c = prepare_request(einsum_query(seed=2))
    assert a.coalesce_key == b.coalesce_key
    assert a.coalesce_key != c.coalesce_key
    # same kernel, different operands: batch-compatible, not identical
    assert a.batch_key == c.batch_key


def test_deadline_does_not_change_identity():
    a = prepare_request(einsum_query(seed=3))
    b = prepare_request(einsum_query(seed=3, deadline_ms=250))
    assert a.coalesce_key == b.coalesce_key
    assert b.deadline_ms == 250


def test_identity_is_the_tensors_not_their_spelling():
    """Patience, curiosity, JSON key order and entry order do not split
    the coalesce key; one changed value does."""
    doc = einsum_query(seed=4)
    key = prepare_request(doc).coalesce_key
    respelled = {k: doc[k] for k in reversed(list(doc))}
    respelled["operands"] = [
        {k: (v[::-1] if k == "entries" else v) for k, v in reversed(list(op.items()))}
        for op in doc["operands"]
    ]
    assert json.dumps(respelled) != json.dumps(doc)
    assert prepare_request(respelled).coalesce_key == key
    assert prepare_request(dict(doc, explain=True, deadline_ms=99)).coalesce_key == key
    changed = copy.deepcopy(doc)
    changed["operands"][1]["entries"][0][1] += 0.5
    assert prepare_request(changed).coalesce_key != key
    assert prepare_request(dict(doc, capacity=64)).coalesce_key != key


def _parent_encode_result(result):
    """``_encode_result`` as it stood at PR 18: the dict walk, sorted."""
    entries = [
        list(coords) + [v]
        for coords, v in sorted(reference_to_dict(result).items())
    ]
    return {
        "kind": "tensor",
        "attrs": list(result.attrs),
        "dims": list(result.dims),
        "nnz": len(entries),
        "entries": entries,
    }


@given(case=coo_cases())
@settings(max_examples=100, deadline=None)
def test_encoded_result_bytes_are_unchanged(case):
    t = coo_tensor(case)
    assert json.dumps(_encode_result(t)) == json.dumps(_parent_encode_result(t))


def test_integral_float_coordinates_and_dims_are_integers():
    doc = einsum_query(seed=6)
    as_floats = copy.deepcopy(doc)
    for operand in as_floats["operands"]:
        for entry in operand["entries"]:
            entry[0] = [float(c) for c in entry[0]]
        operand["dims"] = [float(d) for d in operand["dims"]]
    assert (prepare_request(as_floats).coalesce_key
            == prepare_request(doc).coalesce_key)


def test_dims_default_to_coordinate_hull():
    doc = einsum_query()
    for operand in doc["operands"]:
        del operand["dims"]
    prepared = prepare_request(doc)
    assert prepared.kernel_key is not None


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("spec"), "spec"),
    (lambda d: d.update(spec="ij,,->i"), "malformed"),
    (lambda d: d.update(kind="prolog"), "unknown query kind"),
    (lambda d: d.update(semiring="imaginary"), "unknown semiring"),
    (lambda d: d.update(operands=[]), "operands"),
    (lambda d: d.update(capacity="lots"), "capacity"),
    (lambda d: d.update(deadline_ms="soon"), "deadline_ms"),
    (lambda d: d["operands"][0]["entries"].append([[1], 2.0]), "rank"),
    # the entry list is client input: nothing in it is coerced
    (lambda d: d["operands"][0]["entries"].append([[1.7, 0], 2.0]),
     "operand 0: coordinates must be integers"),
    (lambda d: d["operands"][1]["entries"].append([[True, 0], 2.0]),
     "operand 1: coordinates must be integers, got bool"),
    (lambda d: d["operands"][0]["entries"].append([["1", 0], 2.0]),
     "operand 0: coordinates must be integers, got str"),
    (lambda d: d["operands"][0]["entries"].append([[[1], 0], 2.0]),
     "operand 0: coordinates must be integers, got list"),
    (lambda d: d["operands"][0]["entries"].append([[float("nan"), 0], 2.0]),
     "operand 0: coordinates must be integers"),
    (lambda d: d["operands"][0]["entries"].append([[0, 0], 2.0, 3.0]),
     "operand 0: every entry must be a [coords, value] pair"),
    (lambda d: d["operands"][0]["entries"].append(7),
     "operand 0: every entry must be a [coords, value] pair"),
    (lambda d: d["operands"][0]["entries"].append([0, 2.0]),
     "operand 0: every entry must be a [coords, value] pair"),
    (lambda d: d["operands"][1]["entries"].append([[0, 0, 0], 2.0]),
     "operand 1: entry rank 3 != spec rank 2"),
    (lambda d: d["operands"][0]["entries"].append([[0, 0], "2.0"]),
     "operand 0: values must be numbers, got str"),
    (lambda d: d["operands"][0]["entries"].append([[0, 0], None]),
     "operand 0: values must be numbers, got NoneType"),
    (lambda d: d["operands"][0]["entries"].append([[4, 0], 2.0]),
     "operand 0: coordinate out of range at level 0"),
    (lambda d: d["operands"][1]["entries"].append([[0, -1], 2.0]),
     "operand 1: coordinate out of range at level 1"),
    # beside a float, an int past 2**53 would be rounded to a neighbour
    (lambda d: d["operands"][0]["entries"].extend(
        [[[2**53 + 1, 0], 2.0], [[1.0, 0], 2.0]]),
     "operand 0: coordinates must be integers below 2**53 beside a float"),
    (lambda d: d["operands"][0]["entries"].append([[2**64, 0], 2.0]),
     "operand 0: Python int too large"),
    (lambda d: d["operands"][0].update(dims=[4, "4"]),
     "operand 0: dims must be integers, got str"),
    (lambda d: d["operands"][0].update(dims=[4, 4.5]),
     "operand 0: dims must be integers"),
    (lambda d: d["operands"][0].update(dims=4),
     "operand 0: dims must be a list of integers"),
])
def test_malformed_einsum_raises_query_error(mutate, fragment):
    doc = einsum_query()
    mutate(doc)
    with pytest.raises((QueryError, ValueError)) as info:
        prepare_request(doc)
    assert fragment.lower() in str(info.value).lower()


def test_sql_prepare_and_execute():
    from repro.serve.deadline import Budget

    doc = {
        "kind": "sql",
        "query": "SELECT a FROM t WHERE b > 1",
        "tables": {"t": {"columns": ["a", "b"], "rows": [[1, 2], [3, 0]]}},
    }
    prepared = prepare_request(doc)
    assert prepared.kernel_key is None       # no kernel → no breaker gate
    assert prepared.batch_key is None
    out = prepared.execute(Budget(5.0))
    assert out == {"kind": "rows", "rows": [[1]], "count": 1}


def test_sql_syntax_error_at_admission():
    doc = {"kind": "sql", "query": "SELEC nope", "tables": {}}
    with pytest.raises(QueryError):
        prepare_request(doc)


def test_semiring_changes_kernel_key():
    a = prepare_request(einsum_query())
    b = prepare_request(einsum_query(semiring="min-plus"))
    assert a.kernel_key != b.kernel_key
