"""Determinism guarantees around the tuner.

``REPRO_TUNE=off`` (and unset — the library default) must be
bit-for-bit the serial semantics: the same exact values as a
dictionary-arithmetic oracle, stable across repeated runs.  And when
tuning *is* on, it may change the plan but never the answer — the
tuner is an optimizer, not a semantics knob.

Exact INT arithmetic everywhere, so equality really is equality.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro.data import Tensor
from repro.semirings import INT
from repro.tensor.einsum import einsum, parse_spec
from tests.strategies import sparse_data

N = 6

SPECS = {
    "spmv": "ij,j->i",
    "matmul": "ij,jk->ik",
    "dot": "i,i->",
    "hadamard": "ij,ij->ij",
}


def _tensors(spec, datasets):
    operands, _ = parse_spec(spec)
    return tuple(
        Tensor.from_entries(
            letters, ("sparse",) * len(letters), (N,) * len(letters),
            list(data.items()), INT,
        )
        for letters, data in zip(operands, datasets)
    )


def _oracle(spec, datasets):
    """Dictionary-arithmetic einsum: the serial semantics, no streams,
    no kernels, no formats."""
    operands, output = parse_spec(spec)
    out = {}
    for picks in itertools.product(*(d.items() for d in datasets)):
        binding = {}
        consistent = True
        for (coords, _), letters in zip(picks, operands):
            for a, c in zip(letters, coords):
                if binding.setdefault(a, c) != c:
                    consistent = False
                    break
            if not consistent:
                break
        if not consistent:
            continue
        term = 1
        for _, v in picks:
            term *= v
        key = tuple(binding[a] for a in output)
        out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if v != 0}


def _as_dict(result):
    if not hasattr(result, "to_dict"):
        return {(): result} if result != 0 else {}
    return {k: v for k, v in result.to_dict().items() if v != 0}


@pytest.fixture(autouse=True)
def _tune_off(monkeypatch):
    monkeypatch.setenv("REPRO_TUNE", "off")


@pytest.mark.parametrize("which", sorted(SPECS))
@given(d1=sparse_data(("i", "j"), max_index=N),
       d2=sparse_data(("i", "j"), max_index=N))
@settings(max_examples=10, deadline=None)
def test_tune_off_matches_serial_oracle(which, d1, d2):
    spec = SPECS[which]
    operands, _ = parse_spec(spec)
    datasets = [
        {k[: len(letters)]: v for k, v in d.items()}
        for letters, d in zip(operands, (d1, d2))
    ]
    tensors = _tensors(spec, datasets)
    first = einsum(spec, *tensors, semiring=INT, backend="python")
    second = einsum(spec, *tensors, semiring=INT, backend="python")
    assert _as_dict(first) == _oracle(spec, datasets)
    # bit-for-bit repeatability: identical values, identical layout
    assert _as_dict(second) == _as_dict(first)
    if hasattr(first, "to_dict"):
        assert first.attrs == second.attrs
        assert first.formats == second.formats
        assert list(first.vals) == list(second.vals)


@given(dm=sparse_data(("i", "j"), max_index=N),
       dv=sparse_data(("j",), max_index=N))
@settings(max_examples=10, deadline=None)
def test_tuner_preserves_semantics(dm, dv):
    """tune="auto" may transpose operands, flip formats, change search
    — the values must not move."""
    from repro.autotune import tune_einsum
    from repro.autotune.decisions import DecisionCache

    datasets = [dm, dv]
    tensors = _tensors("ij,j->i", datasets)
    result = tune_einsum("ij,j->i", *tensors, semiring=INT,
                         backend="python", cache=DecisionCache())
    plan = result.plan()
    kernel = plan.build()
    tuned = kernel.run(plan.inputs)
    assert _as_dict(tuned) == _oracle("ij,j->i", datasets)
