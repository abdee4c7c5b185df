"""The decision cache: persistence round-trips, checksummed envelopes,
and the outcome-feedback staleness loop.
"""

from __future__ import annotations

import json

from repro.autotune.decisions import (
    Decision,
    DecisionCache,
    STALE_MIN_COUNT,
)
from repro.compiler.cache import _payload_digest


def _decision(**over):
    base = dict(
        order=("i", "j"), output_formats=("dense", "sparse"),
        search="binary", executor=None, shards=None,
        capacity_hint=128, predicted_s=0.004, predicted_units=1000.0,
    )
    base.update(over)
    return Decision(**base)


def test_decision_dict_round_trip():
    d = _decision()
    assert Decision.from_dict(d.as_dict()) == d
    # None-valued knobs survive too
    bare = Decision()
    assert Decision.from_dict(bare.as_dict()) == bare


def test_store_then_lookup_from_cold_process(tune_dir):
    warm = DecisionCache(cache_dir=tune_dir)
    warm.store("sig_a" * 8, _decision(), {"considered": 12})
    # a fresh cache instance models a restarted process: only the disk
    # tier can answer
    cold = DecisionCache(cache_dir=tune_dir)
    rec = cold.lookup("sig_a" * 8)
    assert rec is not None
    assert rec.decision == _decision()
    assert rec.explain["considered"] == 12
    assert cold.hits == 1 and cold.misses == 0
    assert cold.lookup("sig_b" * 8) is None
    assert cold.misses == 1


def test_persisted_record_carries_valid_checksum(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    cache.store("sig_c" * 8, _decision())
    files = list(tune_dir.glob("atun_sig_c*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["sha256"] == _payload_digest(record["payload"])
    assert record["payload"]["signature"] == "sig_c" * 8


def test_outcome_feedback_marks_drifted_records_stale(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    sig = "sig_d" * 8
    cache.store(sig, _decision(predicted_s=0.001))
    # observations inside the 3x band: healthy
    for _ in range(STALE_MIN_COUNT):
        cache.record_outcome(sig, 0.002)
    rec = cache.lookup(sig)
    assert not rec.stale
    assert rec.ewma_s > 0
    # runtime drifts an order of magnitude past the prediction
    for _ in range(STALE_MIN_COUNT + 2):
        cache.record_outcome(sig, 0.05)
    rec = cache.lookup(sig)
    assert rec.stale
    assert rec.correction > 1.0
    # staleness survives a restart (it is what triggers the re-search)
    cold = DecisionCache(cache_dir=tune_dir)
    assert cold.lookup(sig).stale


def test_outcome_for_unknown_signature_is_a_noop(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    cache.record_outcome("sig_e" * 8, 1.0)  # must not raise or create files
    assert not list(tune_dir.glob("atun_*.json"))


def test_invalidate_quarantines_the_record(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    sig = "sig_f" * 8
    cache.store(sig, _decision())
    cache.invalidate(sig)
    assert cache.lookup(sig) is None
    assert list(tune_dir.glob("atun_*.json.corrupt"))
    assert not list(tune_dir.glob("atun_*.json"))
