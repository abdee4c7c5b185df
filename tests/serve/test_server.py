"""End-to-end server behavior over real sockets."""

from __future__ import annotations

import json
import logging
import socket
import threading
import time

import pytest

from tests.serve.harness import einsum_query, http_request


def test_health_ready_stats(make_server):
    from repro.runtime import pool as pool_mod

    server = make_server()
    # the server owns its workers from boot: up before the first query,
    # which is what routes every supervised run to them
    assert pool_mod.shared_pool_open()
    pool = pool_mod.get_shared_pool()
    assert len(pool._idle) == pool.max_workers
    assert all(w.proc.is_alive() for w in pool._idle)
    assert server.request("GET", "/healthz").json == {"ok": True}
    assert server.request("GET", "/readyz").json == {"ready": True}
    stats = server.request("GET", "/stats").json
    assert stats["state"] == "ready"
    assert stats["inflight"] == 0
    assert server.request("GET", "/nope").status == 404
    assert server.request("PUT", "/query").status == 405
    assert server.stop() is True
    assert pool.closed and not pool_mod.shared_pool_open()


def test_einsum_query_roundtrip(make_server):
    server = make_server()
    resp = server.query(einsum_query())
    assert resp.status == 200
    body = resp.json
    assert body["result"]["kind"] == "tensor"
    assert body["result"]["attrs"] == ["i", "k"]
    assert body["meta"]["kernel_key"]
    # the second identical query hits the build cache: same key, faster
    again = server.query(einsum_query())
    assert again.json["result"] == body["result"]
    # both ran in a resident worker, not in a fork of this process
    from repro.runtime import pool as pool_mod

    assert pool_mod.get_shared_pool().stats.calls == 2
    # coordinates past 2**31 make their level 64-bit; the worker builds
    # the kernel for that width from the recipe and returns them intact
    big = [3, 2**31 + 5, 2**32 + 9]
    wide = {"kind": "einsum", "spec": "i,i->i", "output_formats": ["sparse"],
            "operands": [{"entries": [[[c], 2.0] for c in big]},
                         {"entries": [[[c], 0.5] for c in big[1:]]}]}
    resp = server.query(wide)
    assert resp.status == 200, resp.json
    assert resp.json["result"]["entries"] == [[2**31 + 5, 1.0], [2**32 + 9, 1.0]]
    assert pool_mod.get_shared_pool().stats.calls == 3


def test_sql_query_roundtrip(make_server):
    server = make_server()
    resp = server.query({
        "kind": "sql",
        "query": "SELECT a FROM t WHERE b > 1",
        "tables": {"t": {"columns": ["a", "b"], "rows": [[1, 2], [3, 0]]}},
    })
    assert resp.status == 200
    assert resp.json["result"]["rows"] == [[1]]


def _raw_exchange(port: int, head: str) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(head.encode())
        s.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := s.recv(4096):
            reply += chunk
        return reply


def test_bad_requests_are_400(make_server, caplog):
    server = make_server()
    assert server.query({"kind": "einsum"}).status == 400
    assert server.query({"kind": "wat"}).status == 400
    bad_shape = einsum_query()
    bad_shape["operands"][0]["dims"] = [2, 2]
    bad_shape["operands"][1]["dims"] = [9, 9]
    assert server.query(bad_shape).status == 400
    raw = http_request(server.port, "POST", "/query", timeout=10)
    assert raw.status == 400      # empty body is not JSON
    # a fractional coordinate is not silently served as coordinate 1
    assert server.query({
        "kind": "einsum", "spec": "i,i->",
        "operands": [{"entries": [[[1.7], 2.0]]}, {"entries": [[[1], 3.0]]}],
    }).status == 400
    # the framing header is client input too: a length that is not a
    # number, is signed or is over the limit gets a reply — not an
    # unhandled exception in the connection task — and the next
    # connection is served
    # (5000 digits is past what int() itself will convert)
    for length, status in (("abc", 400), ("-5", 400), ("+5", 400),
                           ("9" * 5000, 400), (str(1 << 40), 413)):
        reply = _raw_exchange(
            server.port,
            f"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n")
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), (length, reply)
        assert server.request("GET", "/healthz").status == 200
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert not errors, errors


def test_rate_limit_sheds_with_retry_after(make_server):
    server = make_server(qps=0.5, burst=1)
    first = server.query(einsum_query())
    assert first.status == 200
    shed = server.query(einsum_query())
    assert shed.status == 429
    assert shed.retry_after is not None and shed.retry_after >= 1


def test_identical_concurrent_queries_coalesce(make_server):
    server = make_server()
    server.query(einsum_query(seed=9))        # warm the build cache
    results = []

    def fire():
        results.append(server.query(einsum_query(seed=9), timeout=30))

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.status == 200 for r in results)
    payloads = {json.dumps(r.json["result"], sort_keys=True) for r in results}
    assert len(payloads) == 1
    stats = server.request("GET", "/stats").json
    assert stats["coalesced"] >= 1
    assert any(r.json["meta"]["coalesced"] for r in results)


def test_deadline_budget_times_out_spinning_kernel(make_server, monkeypatch):
    from repro.runtime import pool as pool_mod
    from tests.faults.crash_kernels import SpinKernel, sabotage_in_workers

    sabotage_in_workers(monkeypatch, "einsum", SpinKernel())
    server = make_server(deadline=8.0, retries=0)
    assert pool_mod.shared_pool_open()
    t0 = time.monotonic()
    resp = server.query(einsum_query(deadline_ms=900), timeout=30)
    elapsed = time.monotonic() - t0
    assert resp.status == 504
    assert resp.retry_after is not None
    assert elapsed < 6.0      # killed by the budget, not the 8s default
    stats = server.request("GET", "/stats").json
    assert stats["counters"]["timed_out"] == 1


def test_large_result_streams_chunked(make_server):
    server = make_server(stream_threshold=50)
    n = 12     # 12×12 dense product → 144 entries > 50
    doc = {
        "kind": "einsum", "spec": "ij,jk->ik",
        "operands": [
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
        ],
    }
    resp = server.query(doc, timeout=60)
    assert resp.status == 200
    assert resp.headers.get("transfer-encoding") == "chunked"
    assert resp.frames[0]["streaming"] is True
    assert resp.frames[0]["nnz"] == n * n
    assert resp.frames[-1]["done"] is True
    entries = [e for f in resp.frames for e in f.get("entries", [])]
    assert len(entries) == n * n
    assert all(e[2] == float(n) for e in entries)


def test_draining_server_rejects_then_finishes(make_server):
    server = make_server()
    server.query(einsum_query())      # warm
    server.server.lifecycle.state = "draining"
    resp = server.query(einsum_query())
    assert resp.status == 503
    assert resp.headers.get("connection") == "close"
    server.server.lifecycle.state = "ready"
    assert server.query(einsum_query()).status == 200


def test_graceful_stop_waits_for_inflight(make_server):
    server = make_server(drain=10.0)
    server.query(einsum_query())      # warm the kernel
    statuses = []

    def slow_query():
        statuses.append(server.query(einsum_query(seed=5), timeout=30).status)

    t = threading.Thread(target=slow_query)
    t.start()
    time.sleep(0.05)                  # let it get admitted
    clean = server.stop()
    t.join(timeout=20)
    assert clean is True
    assert statuses == [200]


def test_slow_client_does_not_park_the_server(make_server):
    """A client that stops reading mid-stream is cut off within the
    write timeout, and the server keeps answering others."""
    server = make_server(stream_threshold=10, write_timeout=0.5)
    n = 60    # big enough to overflow every socket buffer in the path
    doc = {
        "kind": "einsum", "spec": "ij,jk->ik",
        "operands": [
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
            {"entries": [[[i, j], 1.0] for i in range(n) for j in range(n)],
             "dims": [n, n]},
        ],
    }
    payload = json.dumps(doc).encode()
    s = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
    head = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    s.sendall(head.encode() + payload)
    s.recv(512)               # read a little, then stall
    time.sleep(2.0)           # well past write_timeout
    healthy = server.request("GET", "/healthz", timeout=5)
    assert healthy.status == 200
    quick = server.query(einsum_query(), timeout=30)
    assert quick.status == 200
    s.close()
