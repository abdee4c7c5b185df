"""Load and lifecycle: shedding under overload, drain under SIGTERM.

Three phases, each asserted and none written to a file (served
latency is ``bench/``'s ``serve_query`` workload):

``unloaded``
    sequential warm queries; the p50/p90/p99 baseline every overload
    assertion is relative to.

``overload``
    an open-loop generator offering **2× the configured QPS**.  The
    server must shed the excess with 429/503 + ``Retry-After`` (never
    by queueing until everyone times out), and the requests it *does*
    admit must stay near the unloaded latency — degradation bounded,
    not graceful collapse.

``drain``
    a real ``python -m repro.serve`` child killed with SIGTERM while a
    request is in flight: the in-flight request completes, the process
    exits 0 within the drain budget, and nothing leaks — no child
    processes, no ``/dev/shm/repro_*`` segments.

Thresholds are deliberately loose (3× the unloaded p99, with an
absolute floor) — this is a single-CPU CI container, and the point is
catching collapse, not regressing on milliseconds.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.serve.harness import einsum_query, http_request

REPO = Path(__file__).resolve().parents[2]

QPS = 10.0
BURST = 3
OVERLOAD_SECONDS = 3.0
P99_FLOOR_S = 1.0          # absolute slack for single-CPU scheduling noise


def _percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def _shm_segments():
    shm = Path("/dev/shm")
    if not shm.exists():
        return set()
    return {p.name for p in shm.glob("repro_*")}


def test_overload_sheds_instead_of_collapsing(make_server):
    shm_before = _shm_segments()
    server = make_server(qps=QPS, burst=BURST, max_inflight=8, deadline=10.0)
    server.query(einsum_query(), timeout=60)      # compile outside the clock

    # -- unloaded baseline (paced under the admitted rate) ------------
    unloaded = []
    for _ in range(30):
        time.sleep(1.25 / QPS)
        t0 = time.perf_counter()
        resp = server.query(einsum_query(), timeout=30)
        unloaded.append(time.perf_counter() - t0)
        assert resp.status == 200

    # -- open-loop overload at 2× the admitted rate -------------------
    time.sleep(BURST / QPS)                       # refill the bucket
    offered = int(2 * QPS * OVERLOAD_SECONDS)
    interval = OVERLOAD_SECONDS / offered
    lock = threading.Lock()
    admitted, shed, errors = [], [], []

    def fire(slot):
        time.sleep(slot * interval)
        t0 = time.perf_counter()
        resp = server.query(einsum_query(), timeout=30)
        elapsed = time.perf_counter() - t0
        with lock:
            if resp.status == 200:
                admitted.append(elapsed)
            elif resp.status in (429, 503):
                shed.append((resp.status, resp.retry_after, elapsed))
            else:
                errors.append(resp.status)

    threads = [threading.Thread(target=fire, args=(s,)) for s in range(offered)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, f"unexpected statuses under load: {errors}"
    # ~half the offered load must be shed — the bucket caps admission
    assert len(shed), "2x overload produced no shedding at all"
    assert all(ra is not None and ra >= 1 for _, ra, _ in shed), (
        "every shed response must carry a Retry-After hint"
    )
    # shedding is cheap: rejections return far faster than service
    shed_p99 = _percentile([e for *_, e in shed], 0.99)
    assert shed_p99 < 1.0, f"rejections took {shed_p99:.2f}s — not load *shedding*"

    # admitted requests stay near the unloaded latency
    assert admitted, "overload admitted nothing — bucket misconfigured"
    loaded_p99 = _percentile(admitted, 0.99)
    bound = max(3 * _percentile(unloaded, 0.99), P99_FLOOR_S)
    assert loaded_p99 <= bound, (
        f"admitted p99 {loaded_p99 * 1e3:.0f}ms exceeds "
        f"{bound * 1e3:.0f}ms — degradation is not bounded"
    )

    # -- teardown hygiene ---------------------------------------------
    assert server.stop() is True
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    leaked = _shm_segments() - shm_before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def test_sigterm_drains_in_flight_then_exits_clean(tmp_path):
    """The real process, the real signal: ``python -m repro.serve`` under
    SIGTERM finishes the request it already accepted, then exits 0."""
    drain_budget = 8.0
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "kcache")
    env["REPRO_SERVE_PORT"] = "0"
    env["REPRO_SERVE_DRAIN"] = str(drain_budget)
    shm_before = _shm_segments()

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = None
        boot_deadline = time.monotonic() + 30
        while time.monotonic() < boot_deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if "REPRO_SERVE_READY" in line:
                port = int(line.strip().rsplit(":", 1)[1])
                break
        assert port is not None, "server never announced readiness"

        warm = http_request(port, "POST", "/query", einsum_query(), timeout=60)
        assert warm.status == 200

        inflight_status = []

        def inflight():
            resp = http_request(port, "POST", "/query", einsum_query(seed=4),
                                timeout=30)
            inflight_status.append(resp.status)

        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.05)                  # let the request get admitted

        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=drain_budget + 10)
        drain_elapsed = time.monotonic() - t0
        t.join(timeout=10)

        assert returncode == 0, proc.stdout.read()
        assert drain_elapsed <= drain_budget + 2.0
        assert inflight_status == [200], (
            "the in-flight request must complete during drain"
        )
        # after drain the port is closed — new connections are refused
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
        leaked = _shm_segments() - shm_before
        assert not leaked, f"leaked shared-memory segments: {leaked}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
