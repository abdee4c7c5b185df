"""Durable jobs behind the serving stack: job ids, memory-aware
admission, and resume across a server restart.

The in-process harness shares the test's environment, so
``REPRO_FAULT`` genuinely interrupts the server's own sharded run and
``REPRO_JOB_DIR`` is the journal both "server generations" see —
killing server A mid-job and re-POSTing the identical query at server
B exercises the real resume path end to end.
"""

from __future__ import annotations

import pytest

from repro.compiler import resilience

from tests.serve.harness import einsum_query

#: a spec big enough that the planner actually shards it
SPEC = "ij,jk->ik"
N = 8


@pytest.fixture(autouse=True)
def durable_env(tmp_path, monkeypatch):
    """Deterministic sharding + isolated journal root for every test."""
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "jobs"))
    resilience.reset_fault_counters()
    yield
    resilience.reset_fault_counters()


def _jobs(tmp_path):
    root = tmp_path / "jobs"
    return sorted(root.glob("job_*")) if root.exists() else []


def test_durable_query_reports_job_id(make_server):
    server = make_server(tune="off")
    resp = server.query(einsum_query(SPEC, n=N, durable=True), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]
    assert meta["job_id"].startswith("job_")
    assert meta["resumed_shards"] == 0
    assert meta["spills"] == 0


def test_non_durable_query_has_no_job_id(make_server):
    server = make_server(tune="off")
    resp = server.query(einsum_query(SPEC, n=N), timeout=60)
    assert resp.status == 200
    assert "job_id" not in resp.json["meta"]


def test_bad_durable_flag_is_a_400(make_server):
    server = make_server(tune="off")
    resp = server.query(einsum_query(SPEC, n=N, durable="yes"), timeout=30)
    assert resp.status == 400
    assert "durable" in resp.json["error"]


def test_resume_across_server_restart(tmp_path, make_server, monkeypatch):
    doc = einsum_query(SPEC, n=N, durable=True)

    # generation A dies mid-job: the injected fault fires after the
    # first shard partial is journaled and surfaces as a typed 500
    server_a = make_server(tune="off", retries=0)
    monkeypatch.setenv("REPRO_FAULT", "shard:raise")
    resilience.reset_fault_counters()
    crashed = server_a.query(doc, timeout=60)
    assert crashed.status == 500
    assert crashed.json["type"] == "InjectedFault"
    assert _jobs(tmp_path), "the dead job must leave its journal behind"
    monkeypatch.delenv("REPRO_FAULT")
    resilience.reset_fault_counters()
    assert server_a.stop() is True

    # generation B adopts the journal on the identical query
    server_b = make_server(tune="off")
    resumed = server_b.query(doc, timeout=60)
    assert resumed.status == 200
    meta = resumed.json["meta"]
    assert meta["resumed_shards"] >= 1
    assert not _jobs(tmp_path), "journal discarded after the merge"

    # and the resumed result equals a fresh, uninterrupted run's
    fresh = server_b.query(doc, timeout=60)
    assert fresh.status == 200
    assert fresh.json["result"] == resumed.json["result"]


# ----------------------------------------------------------------------
# memory-aware admission
# ----------------------------------------------------------------------
def test_footprint_over_budget_is_shed_with_503(make_server, monkeypatch):
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0.000001")
    server = make_server(tune="off")
    resp = server.query(einsum_query(SPEC, n=N), timeout=30)
    assert resp.status == 503
    assert "memory budget" in resp.json["error"]
    assert resp.retry_after is not None and resp.retry_after >= 1.0


def test_degrade_spill_admits_over_budget_as_durable(
        make_server, monkeypatch):
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0.000001")
    server = make_server(tune="off", degrade="spill")
    resp = server.query(einsum_query(SPEC, n=N), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]
    assert meta["job_id"].startswith("job_")   # durable was forced
    assert meta["spills"] >= 1                 # and the governor spilled


def test_under_budget_queries_admit_normally(make_server, monkeypatch):
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "4096")
    server = make_server(tune="off")
    resp = server.query(einsum_query(SPEC, n=N), timeout=60)
    assert resp.status == 200
    assert "job_id" not in resp.json["meta"]
