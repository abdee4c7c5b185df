"""The measurement loop and the statistics built on it."""

import subprocess
import sys
import time

import pytest

from bench import harness, metrics
from bench.harness import Cell


def cell(name, rounds_ms, batch=1):
    return Cell(name, op=None, check=None, batch=batch, rounds_ms=rounds_ms)


def test_per_cell_statistics_combine_by_geomean():
    # 1..100 in ten rounds of ten, and a constant cell 100 times cheaper
    slow = cell("slow", [[float(10 * r + s + 1) for s in range(10)] for r in range(10)])
    fast = cell("fast", [[0.5] * 10] * 10, batch=4)
    assert slow.times_ms == [float(v) for v in range(1, 101)]
    assert metrics.untraced_medians([slow, fast]) == {"slow": 50.5, "fast": 0.5}
    got = {k: m["value"] for k, m in metrics.timings([slow, fast]).items()}
    assert got["p50_geomean_ms"] == pytest.approx((50.5 * 0.5) ** 0.5)
    assert got["p90_geomean_ms"] == pytest.approx((90.1 * 0.5) ** 0.5)
    # 100 calls in 5050 ms and 400 calls in 200 ms
    assert got["throughput_ops_s"] == pytest.approx(500 / 5.25)
    # doubling one cell moves the geomean by √2, whatever the cell's size
    double = cell("fast", [[1.0] * 10] * 10, batch=4)
    assert (metrics.timings([slow, double])["p50_geomean_ms"]["value"]
            / got["p50_geomean_ms"]) == pytest.approx(2 ** 0.5)


def test_run_rounds_counts_failures_and_keeps_going():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("boom")
        return len(calls)

    c = Cell("flaky", flaky, check=lambda r: True, batch=1, samples=2)
    harness.run_rounds([c], rounds=3)
    assert (c.attempted, c.failed) == (6, 1)
    assert [len(block) for block in c.rounds_ms] == [2, 1, 2]


def test_watchdog_is_not_swallowed_as_a_failed_op():
    hung = Cell("hung", lambda: time.sleep(5), check=lambda r: True, samples=1)
    harness.arm_watchdog(1)
    try:
        with pytest.raises(harness.WatchdogExpired):
            harness.run_rounds([hung], rounds=1)
    finally:
        harness.arm_watchdog(0)
    assert hung.failed == 0


def test_end_processes_waits_for_orphans_and_kills_stragglers():
    # in a process of its own: it reaps every child it can see
    script = (
        "import subprocess, sys, time\n"
        "from bench import harness\n"
        "harness.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 0.3 &'])\n"
        "clean = harness.end_processes(grace_s=5)\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'])\n"
        "t0 = time.monotonic()\n"
        "killed = harness.end_processes(grace_s=0.2)\n"
        "print(clean, killed, time.monotonic() - t0 < 5)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=harness.ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "1", "True"], out.stderr
