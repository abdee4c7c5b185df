"""BENCHMARK.json against the harness and against the contract's limits."""

import json
import os
import re

from bench import metrics
from bench.workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_and_workloads():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(NAMES)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 2 <= len(s["workloads"]) <= 8
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert s["paths"] == ["bench"]
    assert s["command"] == ["python3", "bench/run.py"]


def test_end_to_end_metrics_match_the_harness():
    rows = spec()["end_to_end"]
    assert {r["name"]: r["unit"] for r in rows} == metrics.END_TO_END
    for r in rows:
        assert set(r) == {"name", "unit", "better", "bound"}
        assert NAME.match(r["name"]) and UNIT.match(r["unit"])
        assert r["better"] in ("lower", "higher")
        assert 0 < r["bound"] <= 0.25
    setup = next(r for r in rows if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in rows)
    # set-up is the only wall-clock time that is gated; nothing else
    # gets more than a tenth
    assert all(r["bound"] <= 0.10 for r in rows if r is not setup)


def test_per_layer_metrics_match_the_harness():
    rows = spec()["per_layer"]
    assert {r["name"]: r["unit"] for r in rows} == metrics.PER_LAYER
    assert 1 <= len(rows) <= 128
    for r in rows:
        assert set(r) == {"name", "unit", "better"}
        assert NAME.match(r["name"]) and UNIT.match(r["unit"])
    names = [r["name"] for r in rows] + [r["name"] for r in spec()["end_to_end"]]
    assert len(names) == len(set(names))


def test_file_is_small():
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024
