"""Chaos: crashing kernels behind the full serving stack.

The server's pool workers are started with the *einsum* kernel of the
poisoned spec sabotaged (``crash_kernels.sabotage_in_workers``), so its
supervised runs genuinely segfault while the server's own copy — the
source of the pure-Python fallback — stays healthy.  The expected
ladder (a crash is never replayed; the breaker books each one):

requests 1–3: crash → 500; the third trips the breaker
request 4+: rejected at admission — 503 + Retry-After, no compile,
           no dispatch (the breaker gate fires on the cache key alone)
"""

from __future__ import annotations

import time

import pytest

from tests.faults.crash_kernels import SegfaultKernel, sabotage_in_workers
from tests.serve.harness import einsum_query

POISON_SPEC = "ij,jk->ik"
HEALTHY_SPEC = "i,i->"


def _poison(monkeypatch):
    """Before the server boots: its workers will segfault on the
    poisoned spec's kernel."""
    sabotage_in_workers(monkeypatch, "einsum_ij_jk", SegfaultKernel())


def test_crash_ladder_to_breaker_rejection(make_server, monkeypatch):
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
    _poison(monkeypatch)
    server = make_server(deadline=10.0, retries=2, qps=0.0)

    # requests 1-3: one crash each, a typed 500; the third opens it
    for _ in range(3):
        crashed = server.query(einsum_query(POISON_SPEC), timeout=30)
        assert crashed.status == 500
        assert crashed.json["type"] == "KernelCrashError"

    # request 4: shed at admission with the breaker's own ETA
    t0 = time.monotonic()
    third = server.query(einsum_query(POISON_SPEC), timeout=10)
    shed_ms = (time.monotonic() - t0) * 1e3
    assert third.status == 503
    assert third.retry_after is not None and third.retry_after >= 1
    assert "breaker" in third.json["error"]
    # rejection happens pre-compile/pre-dispatch: it must be near-instant
    assert shed_ms < 500

    # a different kernel is unaffected by the quarantined one
    healthy = server.query(einsum_query(HEALTHY_SPEC), timeout=30)
    assert healthy.status == 200

    stats = server.request("GET", "/stats").json
    assert any(rec["open"] for rec in stats["breaker"].values())


def test_degrade_fallback_serves_python_twin(make_server, monkeypatch):
    """REPRO_SERVE_DEGRADE=fallback admits quarantined kernels and lets
    Kernel.run serve the memory-safe twin instead of shedding."""
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
    _poison(monkeypatch)
    server = make_server(degrade="fallback", retries=1)
    first = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert first.status == 500      # the crash that trips the breaker
    follow = server.query(einsum_query(POISON_SPEC), timeout=30)
    assert follow.status == 200
    stats = server.request("GET", "/stats").json
    assert stats["counters"]["rejected"] == 0


def test_crashes_do_not_leak_processes_or_shm(make_server, monkeypatch):
    before = _shm_litter()
    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
    _poison(monkeypatch)
    server = make_server(retries=1)
    for _ in range(3):
        server.query(einsum_query(POISON_SPEC), timeout=30)
    _stops_without_leaks(server, before)


#: (route, death) → breaker state before → (status, breaker state,
#: failures and probes after), under ``REPRO_SERVE_DEGRADE=fallback`` so
#: that an open breaker admits the query; the cells no other test pins
#: (DESIGN.md "Supervised execution & circuit breaker" has them all).
#: The breaker opens at three deaths; a half-open one starts from three.
SERVED_CRASH_TABLE = {
    ("plain", "deadline"): {
        "closed": (504, "closed", 1, 0),
        "half_open": (200, "open", 4, 1),
    },
    ("plain", "sigsegv"): {
        "half_open": (200, "open", 4, 1),
    },
    ("plain", "typed"): {
        "closed": (500, "closed", 0, 0),
        "half_open": (500, "half_open", 3, 0),
    },
    ("durable", "deadline"): {
        "closed": (200, "open", 4, 0),
        "half_open": (200, "open", 4, 1),
    },
    ("durable", "sigsegv"): {
        "open": (200, "open", 3, 0),
        "half_open": (200, "open", 4, 1),
    },
    ("durable", "typed"): {
        "closed": (500, "closed", 0, 0),
        "half_open": (500, "half_open", 3, 0),
    },
}


@pytest.mark.parametrize("route,death", sorted(SERVED_CRASH_TABLE),
                         ids=["-".join(cell) for cell in sorted(SERVED_CRASH_TABLE)])
def test_served_crash_table(route, death, make_server, monkeypatch,
                            tmp_path):
    """A served einsum whose kernel dies answers with the twin's result
    or a typed error on the plain and the durable route, the breaker
    books each death once, and nothing is left in ``/dev/shm`` or the
    journal directory."""
    from repro.runtime.breaker import breaker
    from repro.serve.query import prepare_request
    from tests.faults.crash_kernels import OverrunKernel, SpinKernel

    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))
    before = _shm_litter()
    fake = {"sigsegv": SegfaultKernel, "deadline": SpinKernel,
            "typed": OverrunKernel}[death]
    sabotage_in_workers(monkeypatch, "einsum_ij_jk", fake())
    server = make_server(degrade="fallback", tune="off", retries=1)
    # a sparse output, so that the typed death has a reservation to pass
    doc = einsum_query(POISON_SPEC, n=8, durable=route == "durable",
                       output_formats=["dense", "sparse"],
                       deadline_ms=400 if death == "deadline" else None)
    # built here, the server's build is a memory hit: the budget is the
    # kernel's, not the compiler's
    prepared = prepare_request(doc)
    prepared.build()
    key = prepared.kernel_key
    for state, verdict in SERVED_CRASH_TABLE[route, death].items():
        breaker.reset()
        if state != "closed":
            for _ in range(3):
                breaker.record_failure(key)
            if state == "half_open":
                breaker._records[key].opened_at -= 1e6
        resp = server.query(doc, timeout=30)
        ledger = breaker.snapshot().get(key, {"failures": 0, "probes": 0})
        assert (resp.status, breaker.state(key), ledger["failures"],
                ledger["probes"]) == verdict, (state, resp.json)
        if resp.status == 500:
            assert resp.json["type"] == "CapacityError"
        if resp.status == 200:
            assert not list((tmp_path / "jobs").glob("job_*"))
    breaker.reset()
    _stops_without_leaks(server, before)


def _shm_litter():
    from pathlib import Path

    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("repro_*")} if shm.exists() else set()


def _stops_without_leaks(server, shm_before):
    """The server drains clean, its workers are gone and no segment of
    its is left in ``/dev/shm``."""
    import multiprocessing

    assert server.stop() is True
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert _shm_litter() <= shm_before


def test_reject_mode_admits_the_due_re_probe(make_server, monkeypatch):
    """Under the default ``REPRO_SERVE_DEGRADE=reject`` a quarantined
    kernel is shed only until its re-probe is due: the query that finds
    the breaker half-open is admitted as the probe, and a kernel that
    recovered closes its breaker and is served natively again."""
    from repro.runtime.breaker import breaker
    from repro.serve.query import prepare_request

    monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
    server = make_server(tune="off")
    doc = einsum_query(POISON_SPEC)
    key = prepare_request(doc).kernel_key
    for _ in range(3):
        breaker.record_failure(key)
    assert server.query(doc, timeout=30).status == 503
    breaker._records[key].opened_at -= 1e6
    probe = server.query(doc, timeout=30)
    assert probe.status == 200
    assert breaker.state(key) == "closed"
