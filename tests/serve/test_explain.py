"""``explain=true`` on ``POST /query``: the response meta carries the
autotuner's verdict — and the full explain payload only when asked.
"""

from __future__ import annotations

import pytest

from repro.autotune.decisions import decision_cache

from tests.serve.harness import einsum_query


@pytest.fixture(autouse=True)
def isolated_tune_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TUNE_CACHE_DIR", str(tmp_path / "tcache"))
    decision_cache.clear_memo()
    yield
    decision_cache.clear_memo()


def test_explain_surfaces_the_tuned_plan(make_server):
    server = make_server()          # ServeConfig defaults: tune="auto"
    resp = server.query(einsum_query(explain=True), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]

    # the one-line tune summary rides on every tuned response
    tune = meta["tune"]
    assert tune["cache"] == "miss"
    assert tune["search"] in ("linear", "binary")
    assert isinstance(tune["predicted_ms"], (int, float))

    # the full payload only under explain=true
    explain = meta["explain"]
    assert explain["signature"] == tune_signature(explain)
    assert explain["considered"] > 1
    assert explain["candidates"], "explain must rank the rejected plans"
    assert explain["decision"]["search"] == tune["search"]


def tune_signature(explain):
    sig = explain["signature"]
    assert isinstance(sig, str) and len(sig) == 64
    return sig


def test_warm_signature_is_a_cache_hit(make_server):
    server = make_server()
    first = server.query(einsum_query(explain=True), timeout=60)
    assert first.status == 200
    # a later request with the same workload shape reuses the decision
    # (distinct request document — the explain flag and deadline are
    # not part of the workload signature)
    again = server.query(einsum_query(explain=True, deadline_ms=9000),
                         timeout=60)
    assert again.status == 200
    assert again.json["meta"]["tune"]["cache"] == "hit"
    assert (again.json["meta"]["explain"]["signature"]
            == first.json["meta"]["explain"]["signature"])


def test_no_explain_flag_means_no_explain_payload(make_server):
    server = make_server()
    resp = server.query(einsum_query(), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]
    assert "tune" in meta            # the cheap summary is always there
    assert "explain" not in meta     # the full payload is opt-in


def test_tune_off_server_serves_untuned(make_server):
    server = make_server(tune="off")
    resp = server.query(einsum_query(explain=True), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]
    assert "tune" not in meta
    assert meta.get("explain") is None


def test_explicit_client_knobs_win_over_the_tuner(make_server):
    server = make_server()
    doc = einsum_query(explain=True)
    doc["order"] = ["i", "j", "k"]
    resp = server.query(doc, timeout=60)
    assert resp.status == 200
    # the tuner is never consulted for a pinned plan
    assert "tune" not in resp.json["meta"]


def test_explain_results_match_unexplained_results(make_server):
    server = make_server()
    plain = server.query(einsum_query(), timeout=60)
    explained = server.query(einsum_query(explain=True), timeout=60)
    assert plain.status == explained.status == 200
    assert explained.json["result"] == plain.json["result"]


def test_a_sub_microsecond_forecast_is_not_reported_as_zero(make_server):
    server = make_server()
    resp = server.query(einsum_query("i,i->", n=4, explain=True), timeout=60)
    assert resp.status == 200
    meta = resp.json["meta"]
    # a forecast below 0.5 µs is below 3 decimals of a millisecond;
    # the summary must still report it as positive
    assert 0 < meta["explain"]["predicted_s"] < 5e-7
    assert meta["tune"]["predicted_ms"] > 0
