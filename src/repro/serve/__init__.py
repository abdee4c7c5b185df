"""Contraction-as-a-service: a fault-tolerant async query server.

``repro.serve`` turns the compiled-kernel library into a long-running
HTTP/JSON service: clients POST einsum or SQL queries, the server
canonicalizes them into the kernel build-cache key, executes on the
supervised runtime (the worker pool the server boots with), and
wraps the whole path in a resilience stack —

* per-request **deadline budgets** propagated down to the supervised
  run's wall-clock kill (:mod:`repro.serve.deadline`),
* **admission control** and load shedding: a token-bucket rate limit,
  an in-flight cap, and circuit-breaker rejection *before* any compile
  happens (:mod:`repro.serve.admission`),
* **bounded retry** with exponential backoff + jitter for transient
  failures only (:mod:`repro.serve.retrying`),
* **single-flight coalescing** of identical in-flight queries
  (:mod:`repro.serve.coalesce`),
* a **graceful lifecycle**: ``/healthz`` / ``/readyz``, SIGTERM drain,
  and chunked streaming so a slow client never holds a worker
  (:mod:`repro.serve.lifecycle`, :mod:`repro.serve.stream`).

Run it with ``python -m repro.serve``; its environment knobs are the
strict ``REPRO_SERVE_*`` rows, and every other setting is a
:class:`repro.serve.config.ServeConfig` field.
"""

from repro.serve.config import ServeConfig
from repro.serve.app import ContractionServer

__all__ = ["ServeConfig", "ContractionServer"]
