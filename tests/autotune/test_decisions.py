"""The decision cache: persistence round-trips, checksummed envelopes,
and a decision that stays put once it is made.
"""

from __future__ import annotations

import json

from repro.autotune.decisions import Decision, DecisionCache
from repro.compiler.cache import _payload_digest


def _decision(**over):
    base = dict(
        order=("i", "j"), output_formats=("dense", "sparse"),
        search="binary", predicted_s=0.004, predicted_units=1000.0,
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


def test_a_version_2_record_is_a_plain_miss(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    sig = "sig_v" * 8
    cache.store(sig, _decision())
    path = next(tune_dir.glob("atun_sig_v*.json"))
    record = json.loads(path.read_text())
    # a record as version 2 wrote it: executor, shards and the outcome
    # statistics, under a checksum that still holds
    payload = dict(record["payload"], version=2, count=5, ewma_s=0.05,
                   stale=True, correction=12.5)
    payload["decision"] = dict(payload["decision"], executor="thread",
                               shards=2)
    path.write_text(json.dumps(
        {"sha256": _payload_digest(payload), "payload": payload}))
    assert DecisionCache(cache_dir=tune_dir).lookup(sig) is None
    assert path.exists() and not list(tune_dir.glob("*.corrupt"))


def test_a_served_decision_never_moves(tune_dir):
    """Twenty runs of one served body: the first searches and stores,
    every later one is a hit on the same decision and forecast, and
    no run writes the record again."""
    from repro.serve.deadline import Budget
    from repro.serve.query import prepare_request

    from tests.serve.harness import einsum_query

    body = einsum_query("ij,j->i", n=6, seed=3)
    metas, stamps = [], None
    for _ in range(20):
        prepared = prepare_request(body, tune="auto")
        prepared.execute(Budget(30.0))
        # the decision is the plan, and the plan is the kernel key
        metas.append((prepared.tune_meta, prepared.kernel_key))
        files = sorted(tune_dir.glob("atun_*.json"))
        now = {f: (f.stat().st_mtime_ns, f.read_bytes()) for f in files}
        if stamps is None:
            stamps = now
            assert len(stamps) == 1
        assert now == stamps
    first_meta, first_key = metas[0]
    assert first_meta["cache"] == "miss"
    for meta, key in metas[1:]:
        assert meta["cache"] == "hit"
        assert key == first_key
        assert meta["predicted_ms"] == first_meta["predicted_ms"] > 0


def test_invalidate_quarantines_the_record(tune_dir):
    cache = DecisionCache(cache_dir=tune_dir)
    sig = "sig_f" * 8
    cache.store(sig, _decision())
    cache.invalidate(sig)
    assert cache.lookup(sig) is None
    assert list(tune_dir.glob("atun_*.json.corrupt"))
    assert not list(tune_dir.glob("atun_*.json"))
