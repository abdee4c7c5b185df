"""serve_query — ``python -m repro.serve`` in its default configuration
(tune=auto, fork supervision), one HTTP/1.1 keep-alive client, closed
loop: the caller of ``/query`` waits for its reply, and one client plus
the server's supervised child already fill the two cores.

Each cell cycles 10 pre-encoded bodies of one shape and is issued in
blocks of consecutive requests, so a small query is not measured in the
heap shadow of the megabyte body before it.  Small and large bodies sit
in one workload as separate cells, which the per-cell geomean makes
safe.

Why: ``repro.serve`` and the supervisor do most of the work and the
kernels almost none; this is where the written account of a
``/query``'s milliseconds comes from.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from bench import datagen, harness
from bench.harness import Cell
from bench.workloads import Workload

VARIANTS = 10
#: cell → spec and, per operand, (dims, nnz)
FULL = {
    "dot.small": ("i,i->", [((1024,), 100), ((1024,), 100)]),
    "spmv.mid": ("ij,j->i", [((512, 512), 5_000), ((512,), 256)]),
    "spmv.big": ("ij,j->i", [((2048, 2048), 16_000), ((2048,), 1024)]),
    "mmul.stream": ("ij,jk->ik", [((96, 96), 900), ((96, 96), 900)]),
}
SMOKE = {
    "dot.small": ("i,i->", [((64,), 10), ((64,), 10)]),
    "spmv.mid": ("ij,j->i", [((32, 32), 100), ((32,), 16)]),
    "spmv.big": ("ij,j->i", [((64, 64), 400), ((64,), 32)]),
    "mmul.stream": ("ij,jk->ik", [((80, 80), 800), ((80, 80), 800)]),
}
SQL = ("SELECT o_cust, SUM(i_price) FROM orders, items "
       "WHERE o_id = i_order GROUP BY o_cust")
SQL_ROWS = {"full": (400, 1_600), "smoke": (40, 160)}


def _einsum_variant(rng, spec: str, shapes) -> Tuple[bytes, np.ndarray]:
    """One request body and the dense result NumPy computes for it."""
    operands, arrays = [], []
    for dims, nnz in shapes:
        coords = datagen.random_coords(rng, dims, nnz)
        vals = np.round(rng.random(len(coords)) + 0.5, 6)
        dense = np.zeros(dims)
        dense[tuple(coords.T)] = vals
        arrays.append(dense)
        operands.append({
            "entries": [[c, v] for c, v in zip(coords.tolist(), vals.tolist())],
            "dims": list(dims),
        })
    body = json.dumps({"kind": "einsum", "spec": spec, "operands": operands})
    return body.encode(), np.einsum(spec, *arrays)


def _sql_variant(rng, n_orders: int, n_items: int) -> Tuple[bytes, Dict[int, float]]:
    """A two-table join-and-aggregate; SQLite computes the oracle."""
    orders = [[o, int(rng.integers(0, n_orders // 8))] for o in range(n_orders)]
    items = [[int(rng.integers(0, n_orders)), float(np.round(rng.random() * 100, 2))]
             for _ in range(n_items)]
    body = json.dumps({
        "kind": "sql", "query": SQL,
        "tables": {"orders": {"columns": ["o_id", "o_cust"], "rows": orders},
                   "items": {"columns": ["i_order", "i_price"], "rows": items}},
    })
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE orders (o_id INTEGER, o_cust INTEGER)")
        db.execute("CREATE TABLE items (i_order INTEGER, i_price REAL)")
        db.executemany("INSERT INTO orders VALUES (?, ?)", orders)
        db.executemany("INSERT INTO items VALUES (?, ?)", items)
        want = {int(c): float(s) for c, s in db.execute(SQL)}
    finally:
        db.close()
    return body.encode(), want


def decode(content_type: str, data: bytes) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(result, meta)`` of a 200 response, plain or NDJSON-streamed."""
    if "ndjson" not in content_type:
        doc = json.loads(data)
        return doc["result"], doc["meta"]
    frames = [json.loads(line) for line in data.splitlines() if line.strip()]
    head, tail = frames[0], frames[-1]
    if not tail.get("done"):
        raise ValueError("stream ended without its done frame")
    result = {k: v for k, v in head.items() if k != "streaming"}
    result["entries"] = [e for f in frames[1:-1] for e in f["entries"]]
    return result, {k: v for k, v in tail.items() if k != "done"}


def result_matches(result: Dict[str, Any], want) -> bool:
    if result["kind"] == "scalar":
        return bool(np.isclose(result["value"], float(want), rtol=1e-9))
    if result["kind"] == "rows":
        got = {int(c): float(s) for c, s in result["rows"]}
        return got.keys() == want.keys() and all(
            np.isclose(got[k], want[k], rtol=1e-9) for k in want)
    got = np.zeros(result["dims"])
    for *coords, v in result["entries"]:
        got[tuple(coords)] = v
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=1e-9))


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: a benchmark that is killed outright (a driver's
    # timeout) cannot stop its server, so the kernel does
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)


class Server:
    """The server subprocess: boot to the ready line, stop by SIGTERM."""

    def __init__(self, log_path: str) -> None:
        self.log = open(log_path, "w")
        t0 = time.perf_counter()
        line = self._boot()
        self.boot_s = time.perf_counter() - t0
        if not line.startswith("REPRO_SERVE_READY"):
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.host, port = line.split()[1].rsplit(":", 1)
        self.port = int(port)

    def _boot(self) -> str:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            env=dict(os.environ, PYTHONPATH=harness.SRC),
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_die_with_parent,
        )
        return self.proc.stdout.readline()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """One keep-alive connection; a non-200 reply is an error."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(
            host, port, timeout=harness.OP_TIMEOUT_S)

    def query(self, body: bytes) -> Tuple[str, bytes]:
        try:
            self.conn.request("POST", "/query", body,
                              {"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            data = resp.read()
        except Exception:
            self.conn.close()       # the next request reconnects
            raise
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
        return resp.getheader("Content-Type", ""), data

    def close(self) -> None:
        self.conn.close()


class ServeQuery(Workload):
    name = "serve_query"
    rounds = 10
    samples = 10

    def generate(self, seed: int, smoke: bool) -> None:
        self.bodies: Dict[str, List[bytes]] = {}
        self.wants: Dict[str, List[Any]] = {}
        self.shapes = SMOKE if smoke else FULL
        for cell, (spec, shapes) in self.shapes.items():
            rng = datagen.rng_for(seed, self.name, cell)
            pairs = [_einsum_variant(rng, spec, shapes) for _ in range(VARIANTS)]
            self.bodies[cell] = [b for b, _ in pairs]
            self.wants[cell] = [w for _, w in pairs]
        rng = datagen.rng_for(seed, self.name, "sql.join")
        pairs = [_sql_variant(rng, *SQL_ROWS["smoke" if smoke else "full"])
                 for _ in range(VARIANTS)]
        self.bodies["sql.join"] = [b for b, _ in pairs]
        self.wants["sql.join"] = [w for _, w in pairs]
        self.cursor = {cell: 0 for cell in self.bodies}

    def input_bytes(self) -> bytes:
        return b"".join(b for cell in sorted(self.bodies) for b in self.bodies[cell])

    def setup(self, tag: str, final: bool) -> None:
        log = os.path.join(os.environ["REPRO_KERNEL_CACHE_DIR"], "..", "server.log")
        self.server = Server(os.path.normpath(log))
        self.client = Client(self.server.host, self.server.port)
        # the first query of each shape pays tuner search, compile and gcc
        for cell in self.bodies:
            self.client.query(self.bodies[cell][0])

    def teardown(self) -> None:
        self.client.close()
        self.server.stop()

    def _next(self, cell: str) -> Tuple[int, str, bytes]:
        k = self.cursor[cell]
        self.cursor[cell] = (k + 1) % VARIANTS
        content_type, data = self.client.query(self.bodies[cell][k])
        return k, content_type, data

    def _check(self, cell: str, reply) -> bool:
        k, content_type, data = reply
        result, _meta = decode(content_type, data)
        return result_matches(result, self.wants[cell][k])

    def cells(self) -> List[Cell]:
        return [
            Cell(cell,
                 lambda cell=cell: self._next(cell),
                 lambda reply, cell=cell: self._check(cell, reply),
                 samples=self.samples)
            for cell in self.bodies
        ]

    # ------------------------------------------------------------------
    def trace(self, tracer, rounds, untraced):
        from repro.serve.deadline import request_budget
        from repro.serve.query import prepare_request

        tune_hits = tune_lookups = 0
        bytes_in = bytes_out = 0
        forecast = []
        for cell in self.bodies:
            predicted = []
            for k in range(rounds * self.samples):
                reply = tracer.op(cell, self._traced_request, tracer, cell)
                if reply is None:
                    continue
                body, content_type, data, meta = reply
                if k == 0:
                    bytes_in += len(body)
                    bytes_out += len(data)
                tune = meta.get("tune")
                if tune is not None:
                    tune_lookups += 1
                    tune_hits += tune["cache"] == "hit"
                    predicted.append(tune["predicted_ms"])
                # the same body replayed in this process, one public
                # call per stage of the server's request path
                prepared = tracer.call(
                    "serve.prepare",
                    lambda: prepare_request(json.loads(body), "auto"))
                if prepared.plan is not None:
                    kernel = tracer.call("serve.build", prepared.build)
                result = tracer.call("serve.execute", prepared.execute,
                                     request_budget(None, 30.0))
                tracer.call("serve.encode", json.dumps,
                            {"result": result, "meta": meta})
                if prepared.plan is not None:
                    bound = kernel.bind(prepared.plan.inputs, prepared.capacity)
                    tracer.call("kernel.exec", bound.run_only)
                    self._tune_lookup(tracer, prepared)
            exec_ns = tracer.self_times().get((cell, "kernel.exec"))
            if predicted and exec_ns:
                forecast.append(
                    statistics.median(predicted) / (statistics.median(exec_ns) / 1e6))
        return {
            "autotune.hit_ratio": tune_hits / tune_lookups if tune_lookups else 0.0,
            "autotune.pred_over_meas":
                statistics.geometric_mean(forecast) if forecast else 0.0,
            "serve.bytes_in": float(bytes_in),
            "serve.bytes_out": float(bytes_out),
            "serve.boot_s": self.server.boot_s,
        }

    def _traced_request(self, tracer, cell: str):
        k = self.cursor[cell]
        self.cursor[cell] = (k + 1) % VARIANTS
        body = self.bodies[cell][k]
        t0 = time.perf_counter_ns()
        content_type, data = self.client.query(body)
        t1 = time.perf_counter_ns()
        _result, meta = decode(content_type, data)
        # the server reports how long its handler held the request; the
        # rest of the client's wait is socket, event loop and framing
        handler_ns = int(meta["elapsed_ms"] * 1e6)
        tracer.record("serve.handler", t0, t0 + handler_ns)
        tracer.record("serve.http", t0 + handler_ns, t1)
        return body, content_type, data, meta

    @staticmethod
    def _tune_lookup(tracer, prepared) -> None:
        """``tune_einsum`` on a warm decision cache, as admission runs it."""
        from repro.autotune import tune_einsum

        plan = prepared.plan
        tensors = list(plan.inputs.values())
        letters = ",".join("".join(t.attrs) for t in tensors)
        out = "".join(plan.output.attrs) if plan.output is not None else ""
        tracer.call("autotune.lookup", tune_einsum, f"{letters}->{out}",
                    *tensors, semiring=plan.semiring)


WORKLOAD = ServeQuery
