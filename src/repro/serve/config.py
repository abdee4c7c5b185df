"""Server configuration: the ``REPRO_SERVE_*`` environment family.

Unlike the library-level ``REPRO_*`` knobs (which warn and fall back
to defaults — a bad value must not take down a library call), the
serve family is **always strict**: every variable is parsed once, at
startup, and an unparsable value raises a typed
:class:`~repro.errors.ConfigError` naming the variable.  A server that
boots is a server whose configuration was read the way the operator
wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import config
from repro.errors import ConfigError

#: degraded-admission policies: ``reject`` sheds the request with
#: 503 + Retry-After (the honest answer under quarantine or memory
#: pressure); ``fallback`` admits it and lets ``Kernel.run`` serve the
#: pure-Python twin; ``spill`` admits footprint-over-budget queries but
#: forces durable execution, so partials spill to the job journal and
#: the merge streams — slower, disk-backed answers instead of 503s
#: (open-breaker queries are still rejected under ``spill``: spilling
#: does not make a crashing kernel safe)
DEGRADE_MODES = config.KNOBS["REPRO_SERVE_DEGRADE"].choices


@dataclass
class ServeConfig:
    """Everything the server reads from the environment, parsed once.

    ``fault_hook`` is programmatic-only (no environment spelling): the
    chaos tests install a callable that sabotages freshly built
    kernels, exercising the crash/timeout paths end to end.
    """

    host: str = "127.0.0.1"
    port: int = 8774
    #: default per-request wall-clock budget, seconds; a request may
    #: ask for less via ``deadline_ms`` but never for more
    deadline: float = 30.0
    #: concurrent admitted requests before 429
    max_inflight: int = 32
    #: sustained admission rate, requests/second (0 = unlimited)
    qps: float = 0.0
    #: token-bucket burst size (0 = derive as max(1, 2·qps))
    burst: int = 0
    #: extra attempts granted to *retryable* failures
    retries: int = 2
    #: base backoff between attempts, seconds (full jitter applied)
    retry_base: float = 0.05
    #: micro-batch gathering window, seconds (0 = batching off)
    batch_window: float = 0.0
    #: max queries folded into one ``Kernel.run_batch``
    batch_max: int = 16
    #: SIGTERM drain budget: finish in-flight work within this many
    #: seconds, then cancel with partial-result markers
    drain: float = 10.0
    #: per-chunk client write budget; a slower client is disconnected
    write_timeout: float = 5.0
    #: open-breaker admission policy (see :data:`DEGRADE_MODES`)
    degrade: str = "reject"
    #: executor threads for blocking kernel work
    workers: int = 8
    #: request body cap, bytes
    max_body: int = 8 * 1024 * 1024
    #: results with more entries than this stream as chunked NDJSON
    stream_threshold: int = 4096
    #: adaptive planning for open-knob einsum queries ("auto" | "off");
    #: the *server* defaults to on — a service should run as fast as
    #: the machine allows — while library builds default to off.
    #: ``REPRO_TUNE`` overrides.
    tune: str = "auto"
    #: chaos seam: called with every freshly built kernel (tests only)
    fault_hook: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.degrade not in DEGRADE_MODES:
            raise ConfigError(
                "REPRO_SERVE_DEGRADE", str(self.degrade),
                f"expected one of {DEGRADE_MODES}",
            )
        if self.tune not in ("off", "auto"):
            raise ConfigError(
                "REPRO_TUNE", str(self.tune), "expected 'off' or 'auto'",
            )
        if self.burst <= 0:
            self.burst = max(1, int(2 * self.qps))

    @classmethod
    def from_env(cls) -> "ServeConfig":
        """Read the full ``REPRO_SERVE_*`` family, strictly.

        Any unparsable value raises :class:`~repro.errors.ConfigError`
        immediately — the server refuses to boot on a typo rather than
        running with a silently ignored knob.
        """
        prefix = "REPRO_SERVE_"
        fields = {
            name[len(prefix):].lower(): config.get(name)
            for name in config.KNOBS if name.startswith(prefix)
        }
        return cls(tune=config.get("REPRO_TUNE") or cls.tune, **fields)


__all__ = ["ServeConfig", "DEGRADE_MODES"]
