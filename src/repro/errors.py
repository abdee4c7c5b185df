"""The shared error taxonomy, rooted at :class:`ReproError`.

Every failure the compiler pipeline can surface to a caller is a typed
subclass of :class:`ReproError`, so service layers can catch one base
class and switch on the concrete type.  The taxonomy distinguishes

* *environment* failures — a missing or broken toolchain
  (:class:`BackendUnavailableError`, :class:`CompileError`),
* *state* failures — corrupted on-disk cache artifacts
  (:class:`CacheCorruptionError`),
* *sizing* failures — a preallocated sparse output too small for the
  result (:class:`CapacityError`),
* *usage* failures — shape mismatches (:class:`ShapeError`),
* *execution* failures — a supervised kernel run dying by signal or
  missing its wall-clock deadline (:class:`KernelCrashError`,
  :class:`KernelTimeoutError`), and
* *coordination* failures — a cross-process build lock that could not
  be acquired in time under strict-lock mode
  (:class:`LockTimeoutError`), and
* *configuration* failures — an environment knob holding an unparsable
  value (:class:`ConfigError`, naming the variable).

Orthogonally to the failure domain, every class is either *retryable*
(it carries the :class:`Retryable` mixin and its instance verdict is
positive — see :func:`is_retryable`) or *permanent*.  Retry loops in
the serving layer and the sharded runtime consult this classification
instead of pattern-matching types, so a deterministic failure (shape
mismatch, source-level compile error, capacity exhaustion) is never
replayed.

:class:`CapacityError` and :class:`ShapeError` predate the taxonomy and
keep their original bases (``RuntimeError`` / ``TypeError``) so
existing ``except`` clauses continue to work.

Fallback behavior (backend downgrade, cache quarantine-and-rebuild,
capacity auto-growth) is never silent: every recovery path logs through
the package-wide ``repro`` logger (see
:mod:`repro.compiler.resilience`).
"""

from __future__ import annotations

from typing import Optional, Sequence


class ReproError(Exception):
    """Base class for every typed error raised by the repro package."""


class Retryable:
    """Mixin marking an error class whose failures *may* be transient.

    The serving layer (:mod:`repro.serve`) and the sharded runtime's
    failover only ever retry errors that pass :func:`is_retryable`;
    everything else is treated as deterministic — retrying a shape
    mismatch or an ill-typed IR reproduces the identical failure and
    only burns the caller's deadline budget.

    Inheriting the mixin makes *instances* retryable by default; a
    subclass (or instance) can refine the verdict by overriding the
    :attr:`retryable` property — :class:`CompileError` does this to
    distinguish a toolchain killed by a signal or timeout (transient:
    OOM pressure, an interrupted build host) from a genuine source
    error (deterministic: the same diagnostics every time).
    """

    @property
    def retryable(self) -> bool:
        return True


def is_retryable(exc: BaseException) -> bool:
    """Whether one more attempt at the failed operation is reasonable.

    True only for :class:`Retryable` errors whose instance verdict is
    positive.  Errors outside the repro taxonomy (a raw ``OSError``
    from an executor, a ``BrokenProcessPool``) are *not* classified
    here — infrastructure layers make their own call for those.
    """
    return isinstance(exc, Retryable) and exc.retryable


class ConfigError(ReproError, ValueError):
    """An environment knob holds a value that cannot be parsed.

    Raised at *read* time by :func:`repro.config.get` — for any row
    under ``REPRO_STRICT_ENV``, and always for the ``REPRO_SERVE_*``
    rows — so an operator typo like ``REPRO_POOL_WORKERS=abc`` surfaces
    once, named, at startup — never as a raw ``ValueError`` deep in the
    stack.
    """

    def __init__(self, variable: str, value: str, reason: str) -> None:
        super().__init__(
            f"invalid {variable}={value!r}: {reason}"
        )
        self.variable = variable
        self.value = value
        self.reason = reason


class CompileError(Retryable, ReproError):
    """Invoking the C toolchain failed (nonzero exit, signal, timeout).

    Carries everything needed for a useful bug report: the command,
    exit code, captured stderr, and whether the failure was a timeout.
    """

    def __init__(
        self,
        message: str,
        *,
        command: Optional[Sequence[str]] = None,
        returncode: Optional[int] = None,
        stderr: Optional[str] = None,
        timeout: bool = False,
    ) -> None:
        detail = message
        if stderr:
            detail = f"{message}\n--- compiler stderr ---\n{stderr.rstrip()}"
        super().__init__(detail)
        self.command = list(command) if command is not None else None
        self.returncode = returncode
        self.stderr = stderr
        self.timeout = timeout
        #: when the toolchain died by signal (negative returncode on
        #: POSIX): the signal number and its symbolic name (``SIGKILL``
        #: usually means the OOM killer)
        self.signal: Optional[int] = None
        self.signal_name: Optional[str] = None
        if returncode is not None and returncode < 0:
            self.signal = -returncode
            self.signal_name = _signal_name(-returncode)

    @property
    def retryable(self) -> bool:
        """A toolchain death by timeout or signal is environmental (an
        OOM kill, an interrupted host) and worth one more attempt; a
        regular nonzero exit is a source error that fails identically
        every time."""
        return self.timeout or self.signal is not None


class BackendUnavailableError(ReproError):
    """The requested backend cannot run in this environment (e.g. the C
    backend with no compiler on ``PATH``)."""

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.reason = reason


class CacheCorruptionError(Retryable, ReproError):
    """A cached build artifact is unreadable and could not be rebuilt.

    Retryable: the corrupt entry is quarantined on detection, so a
    second attempt rebuilds into a clean slot.
    """

    def __init__(self, message: str, *, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = path


class CapacityError(ReproError, RuntimeError):
    """The preallocated sparse output was too small for the result.

    ``needed`` and ``capacity`` (when known) let callers — and
    ``Kernel.run(auto_grow=True)`` — size the retry allocation.
    """

    def __init__(
        self,
        message: str,
        *,
        needed: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.needed = needed
        self.capacity = capacity


def _signal_name(signum: int) -> str:
    """``SIGSEGV``-style symbolic name for a signal number (a plain
    ``SIG<n>`` string when the number is unknown on this platform)."""
    import signal as _signal

    try:
        return _signal.Signals(signum).name
    except ValueError:
        return f"SIG{signum}"


class KernelRuntimeError(ReproError):
    """Base class for failures of a *supervised* kernel execution.

    Raised only on the supervised path (:mod:`repro.runtime.supervisor`)
    — an unsupervised in-process run has no one to catch a segfault.
    """


class KernelCrashError(Retryable, KernelRuntimeError):
    """A supervised kernel child died by signal (segfault from an
    out-of-contract write, SIGKILL from the OOM killer or a resource
    cap, SIGXCPU from ``RLIMIT_CPU``, ...).

    Retryable — but *once*: a crash may be environmental (memory
    pressure on a shared worker, a poisoned pool slot already replaced
    by the time the error surfaces), so the serving layer grants one
    replay on a fresh worker; a kernel that crashes twice is treated as
    deterministic and left to the circuit breaker.

    ``signal`` / ``signal_name`` identify the killer; ``exitcode`` is
    the raw child exit status when the death was not signal-shaped
    (e.g. a child that vanished without reporting a result).
    """

    def __init__(
        self,
        message: str,
        *,
        signal: Optional[int] = None,
        exitcode: Optional[int] = None,
    ) -> None:
        name = _signal_name(signal) if signal is not None else None
        if name is not None:
            message = f"{message} (killed by {name})"
        super().__init__(message)
        self.signal = signal
        self.signal_name = name
        self.exitcode = exitcode


class KernelTimeoutError(KernelRuntimeError):
    """A supervised kernel child missed its wall-clock deadline and was
    killed by the supervising parent.

    Deliberately *not* retryable: the deadline that was missed came out
    of the caller's own budget — replaying a run that just burned the
    whole budget can only miss again, later.
    """

    def __init__(self, message: str, *, deadline: Optional[float] = None) -> None:
        super().__init__(message)
        self.deadline = deadline


class LockTimeoutError(Retryable, ReproError):
    """A cross-process build lock stayed busy past its timeout.

    Retryable: lock contention is transient by nature — the holder
    finishes (or dies) and a later attempt acquires cleanly.

    Raised only under ``REPRO_STRICT_LOCKS=1``; the default policy logs
    a warning and continues unlocked (artifact publication is atomic,
    so the worst case is duplicated work, never corruption).
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.timeout = timeout


class InjectedFault(ReproError):
    """A deliberate failure fired by an armed ``REPRO_FAULT`` site.

    Raised by :func:`repro.compiler.resilience.fault_point` in ``raise``
    mode so chaos tests can fail a specific step (a shard completion,
    the pre-merge instant) deterministically.  *Not* retryable: the
    point of the injection is to observe the failure path, and the
    sharded runtime treats non-retryable :class:`ReproError` as fatal —
    which is exactly what leaves the job journal behind for a resume.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


class ShapeError(ReproError, TypeError):
    """Raised when an expression or operation is used at the wrong shape."""


class StreamPropertyError(ReproError):
    """A stream pipeline failed static property verification.

    Raised by :mod:`repro.compiler.analysis.streamprops` when the
    per-combinator transfer rules (the paper's §6 preservation lemmas)
    cannot certify a pipeline: a non-monotone source, a multiplication
    over a non-strict operand, a contraction over an unbounded level,
    or a semiring-law obligation (idempotent ⊕ for duplicate-folding
    contraction, commutative ⊕ for a sharded contracted merge) the
    kernel's semiring does not discharge.

    ``findings`` is the list of
    :class:`~repro.compiler.analysis.streamprops.Blame` records naming
    the exact AST node / combinator that broke each property;
    :meth:`diagnostic` renders them as a machine-readable body for the
    serving layer's 400 responses.
    """

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        findings: Sequence[object] = (),
    ) -> None:
        if kernel:
            message = f"[kernel {kernel!r}] {message}"
        super().__init__(message)
        self.kernel = kernel
        self.findings = list(findings)

    def diagnostic(self) -> dict:
        """Machine-readable body: error text plus one record per blame."""
        rendered = []
        for f in self.findings:
            as_dict = getattr(f, "as_dict", None)
            rendered.append(as_dict() if callable(as_dict) else {"detail": str(f)})
        return {
            "error": str(self),
            "type": type(self).__name__,
            "kernel": self.kernel,
            "findings": rendered,
        }


class IRVerifyError(ReproError):
    """The IR verifier found an invariant violation in a P/E program.

    Raised by :mod:`repro.compiler.analysis` when a kernel body fails
    static verification — an ill-typed operator application, an
    undefined variable, an inconsistent array element type, or (in
    strict mode) a use-before-def.  When the verifier runs inside the
    optimization pipeline (``optimize(..., verify=True)`` or
    ``REPRO_IR_VERIFY=1``), ``pass_name`` attributes the breakage to
    the pass whose output first failed, turning every miscompiling
    rewrite into a loud, named failure instead of a wrong answer.

    ``violations`` is the list of :class:`~repro.compiler.analysis.verifier.Issue`
    objects that triggered the error; ``stmt`` is the repr of the first
    offending statement.
    """

    def __init__(
        self,
        message: str,
        *,
        pass_name: Optional[str] = None,
        stmt: Optional[str] = None,
        violations: Sequence[object] = (),
    ) -> None:
        if pass_name:
            message = f"[after pass {pass_name!r}] {message}"
        super().__init__(message)
        self.pass_name = pass_name
        self.stmt = stmt
        self.violations = list(violations)


__all__ = [
    "ReproError",
    "Retryable",
    "is_retryable",
    "ConfigError",
    "CompileError",
    "BackendUnavailableError",
    "CacheCorruptionError",
    "CapacityError",
    "InjectedFault",
    "ShapeError",
    "StreamPropertyError",
    "IRVerifyError",
    "KernelRuntimeError",
    "KernelCrashError",
    "KernelTimeoutError",
    "LockTimeoutError",
]
