"""Fault injection against the autotuner's persistent state: corrupt
or truncated decision records must be quarantined and rebuilt — never crash, never serve garbage — and
concurrent writers must never publish a torn record.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.autotune.decisions import Decision, DecisionCache
from repro.compiler.cache import _payload_digest

REPO = Path(__file__).resolve().parents[2]
SIG = "fault_sig" * 7


@pytest.fixture
def tune_dir(tmp_path, monkeypatch):
    d = tmp_path / "tcache"
    monkeypatch.setenv("REPRO_TUNE_CACHE_DIR", str(d))
    return d


def _store_one(tune_dir) -> Path:
    cache = DecisionCache(cache_dir=tune_dir)
    cache.store(SIG, Decision(order=("i", "j"), search="binary",
                              predicted_s=0.001))
    files = list(tune_dir.glob("atun_fault_sig*.json"))
    assert len(files) == 1
    return files[0]


# ----------------------------------------------------------------------
# decision records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("corruption", ["garbage", "truncated", "tampered"])
def test_corrupt_decision_record_quarantined_and_rebuilt(tune_dir, corruption):
    path = _store_one(tune_dir)
    text = path.read_text()
    if corruption == "garbage":
        path.write_text("{this is not json" + "\x00" * 16)
    elif corruption == "truncated":
        path.write_text(text[: len(text) // 2])  # a crashed non-atomic write
    else:  # valid JSON, payload silently flipped -> checksum must catch it
        record = json.loads(text)
        record["payload"]["decision"]["search"] = "linear"
        path.write_text(json.dumps(record))

    cold = DecisionCache(cache_dir=tune_dir)
    assert cold.lookup(SIG) is None          # corruption is a miss...
    assert not path.exists()                 # ...and the artifact moved aside
    assert list(tune_dir.glob("atun_*.json.corrupt"))

    # the cache rebuilds in place: a fresh store + lookup round-trips
    rebuilt = _store_one(tune_dir)
    assert rebuilt == path
    rec = DecisionCache(cache_dir=tune_dir).lookup(SIG)
    assert rec is not None and rec.decision.search == "binary"


def test_version_skew_is_a_plain_miss_not_a_quarantine(tune_dir):
    path = _store_one(tune_dir)
    record = json.loads(path.read_text())
    record["payload"]["version"] = 999
    record["sha256"] = _payload_digest(record["payload"])
    path.write_text(json.dumps(record))
    assert DecisionCache(cache_dir=tune_dir).lookup(SIG) is None
    assert path.exists()                     # future formats are not "corrupt"
    assert not list(tune_dir.glob("*.corrupt"))


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def test_two_processes_racing_on_one_signature(tune_dir):
    """Two workers store/load the same decision signature as fast as
    they can; every read must see a complete record, and the survivor
    on disk must be checksum-valid."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    env["REPRO_TUNE_CACHE_DIR"] = str(tune_dir)
    worker = str(REPO / "tests" / "faults" / "_tune_race_worker.py")
    rounds = "40"
    procs = [
        subprocess.Popen(
            [sys.executable, worker, str(wid), rounds],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        for wid in (0, 1)
    ]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    for p, out in zip(procs, outs):
        assert p.returncode == 0, f"worker failed:\n{out}"
        assert "DONE" in out
    # atomic publication: nothing was ever quarantined mid-race
    assert not list(tune_dir.glob("*.corrupt")), (
        "a reader saw a torn record during the race"
    )
    files = list(tune_dir.glob("atun_race_sig*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["sha256"] == _payload_digest(record["payload"])
    assert record["payload"]["decision"]["search"] in ("linear", "binary")
