"""Kernel building: expression + formats → runnable compiled kernel.

:func:`compile_kernel` runs the full Etch pipeline of Figure 1 — lower
the contraction expression to syntactic streams, emit the loop nest
with the destination-passing compile function, generate C (or Python),
build, and wrap the result as a :class:`Kernel` that marshals
:class:`~repro.data.Tensor` inputs and allocates/assembles outputs.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import math
import re
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import config
from repro.compiler import codegen_c, codegen_py, resilience
from repro.compiler.analysis.dataflow import stmt_effects, stmt_reads
from repro.compiler.analysis.intervals import BoundsFinding, lint_bounds
from repro.compiler.analysis.streamprops import verify_expr
from repro.compiler.cache import kernel_cache, kernel_cache_key
from repro.compiler.resilience import logger
from repro.compiler.compile_fn import compile_stream
from repro.compiler.dest import (
    DensePosDest,
    DenseDest,
    ScalarDest,
    SparseInnerDest,
    SparseLeafDest,
    WorkspaceLeafDest,
)
from repro.compiler.formats import FunctionInput, Param, TensorInput
from repro.compiler.interp import InterpKernel
from repro.compiler.ir import EVar, NameGen, PSeq, PStore, TINT, ilit
from repro.compiler.lower import lower
from repro.compiler.opt import DEFAULT_OPT_LEVEL, optimize
from repro.compiler.scalars import ScalarOps, scalar_ops_for
from repro.compiler.sstream import is_sstream
from repro.streams.base import STAR
from repro.data.tensor import Tensor
from repro.errors import (
    BackendUnavailableError,
    CapacityError,
    CompileError,
    IRVerifyError,
    KernelCrashError,
    KernelTimeoutError,
    ShapeError,
)
from repro.lang.ast import Expr
from repro.lang.typing import TypeContext, shape_of
from repro.semirings.base import Semiring

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: cache keys whose expressions already passed stream-property
#: verification in this process — the static pass is pure over the key's
#: inputs, so a warm build skips straight past it (one set lookup),
#: which is what amortizes the verifier behind the build cache
_VERIFIED_KEYS: set = set()

# CapacityError historically lived here; it now sits in the shared
# taxonomy (repro.errors) and is re-exported for existing importers.


@dataclass(frozen=True)
class OutputSpec:
    """The output tensor's attrs (in global order), formats and dims."""

    attrs: Tuple[str, ...]
    formats: Tuple[str, ...]
    dims: Tuple[int, ...]

    def __post_init__(self):
        if not (len(self.attrs) == len(self.formats) == len(self.dims)):
            raise ValueError("attrs, formats, dims must have equal length")
        supported = {
            (),
            ("dense",),
            ("sparse",),
            ("dense", "dense"),
            ("dense", "sparse"),
            ("sparse", "sparse"),
            ("dense", "dense", "dense"),
        }
        if tuple(self.formats) not in supported and not all(
            f == "dense" for f in self.formats
        ):
            raise ValueError(
                f"unsupported output format stack {self.formats}; supported: "
                "scalar, any all-dense stack, sparse vector, CSR, DCSR"
            )


InputLike = Union[Tensor, TensorInput, FunctionInput]


@dataclass(frozen=True)
class KernelRecipe:
    """Everything needed to rebuild a kernel in another process.

    The parallel runtime's process workers never receive the compiled
    kernel itself (a ctypes handle to a ``.so`` cannot be pickled, and
    shipping generated code would bypass the cache).  They receive this
    recipe — plain picklable data — and replay ``KernelBuilder.build``,
    which lands on the two-tier kernel cache: the in-memory memo within
    a worker, the on-disk source payload (and the ``.so`` cache) across
    workers, so a warm-cache rebuild never re-lowers or re-compiles.

    Only kernels whose inputs are all :class:`TensorInput` get a recipe;
    :class:`FunctionInput` bindings hold arbitrary Python callables and
    are flagged by ``KernelBuilder`` with ``recipe = None`` (the pool
    executor then downgrades to threads).
    """

    expr: Expr
    ctx: TypeContext
    input_structure: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...]
    output: Optional[OutputSpec]
    semiring: Semiring
    backend: str
    search: str
    locate: bool
    opt_level: int
    vectorize: Optional[bool]
    name: str
    attr_dims: Tuple[Tuple[str, int], ...]

    def build(self, cache: bool = True) -> "Kernel":
        """Rebuild the kernel (hits the two-tier cache when warm)."""
        builder = KernelBuilder(
            self.ctx, self.semiring, backend=self.backend, search=self.search,
            locate=self.locate, opt_level=self.opt_level,
            vectorize=self.vectorize, cache=cache,
        )
        specs: Dict[str, Union[TensorInput, FunctionInput]] = {
            var: TensorInput(var, attrs, formats, builder.ops)
            for var, attrs, formats in self.input_structure
        }
        return builder.build(
            self.expr, specs, self.output, name=self.name,
            attr_dims=dict(self.attr_dims),
        )


#: :func:`repro.runtime.policy.resolve`, bound at the first
#: :meth:`Kernel.run`: the runtime package imports this one, and an
#: ``import`` statement per call is 1 µs of a 35 µs run
_resolve_policy = None


def _bind_resolve_policy():
    global _resolve_policy
    from repro.runtime.policy import resolve

    _resolve_policy = resolve
    return resolve


class Kernel:
    """A compiled contraction kernel."""

    def __init__(
        self,
        name: str,
        backend_kernel,
        params: Sequence[Param],
        input_specs: Dict[str, Union[TensorInput, FunctionInput]],
        output: Optional[OutputSpec],
        ops: ScalarOps,
        loop_ir,
        decls: Sequence[EVar] = (),
    ) -> None:
        self.name = name
        self._kernel = backend_kernel
        self.params = list(params)
        self.input_specs = input_specs
        self.output = output
        self.ops = ops
        self.loop_ir = loop_ir
        #: the compiler-declared locals of ``loop_ir`` (for the verifier)
        self.decls = list(decls)
        #: dimension of the dense workspace for the last output level,
        #: or None when the output is assembled in iteration order
        self.ws_dim: Optional[int] = None
        #: the capacity lint's verdict on every store into a
        #: capacity-managed output array (empty for dense/scalar
        #: outputs; the disk cache stores and restores them)
        self.capacity_findings: list = []
        #: picklable rebuild instructions for pool workers, attached
        #: by :class:`KernelBuilder` (None when an input is a
        #: :class:`FunctionInput`)
        self.recipe: Optional[KernelRecipe] = None
        #: this handle's build-time execution defaults, between the call
        #: argument and ``REPRO_*`` in :func:`repro.runtime.policy.resolve`.
        #: The memoized kernel carries none: a build that asks for any
        #: returns a :meth:`_view`, so one caller's defaults never reach
        #: another holder of the same cached object.
        self.parallel: Optional[str] = None
        self.workers: Optional[int] = None
        self.supervised: Optional[bool] = None
        #: the autotuner's verdict when this handle was built through
        #: ``tune="auto"`` (a :class:`repro.autotune.TuneResult`)
        self.tune_decision = None
        #: the canonical build-cache key (None when caching is off);
        #: also keys the supervised-execution circuit breaker
        self.cache_key: Optional[str] = None
        #: per-shard timing/volume stats from the last sharded run,
        #: behind a lock (see the ``last_shard_stats`` property)
        self._stats_lock = threading.Lock()
        self._last_shard_stats: List = []
        #: lazily built pure-Python twin served while the circuit
        #: breaker is open
        self._fallback_lock = threading.Lock()
        self._fallback: Optional["Kernel"] = None

    @property
    def last_shard_stats(self) -> List:
        """Per-shard stats of the most recent sharded run (a copy).

        Reads and writes go through one lock so concurrent
        :meth:`run_sharded` calls on a shared kernel can never expose a
        half-written list; each call's own stats are available
        race-free via ``run_sharded(..., stats_out=[])``.
        """
        with self._stats_lock:
            return list(self._last_shard_stats)

    @last_shard_stats.setter
    def last_shard_stats(self, stats) -> None:
        with self._stats_lock:
            self._last_shard_stats = list(stats)

    @property
    def needs_guard(self) -> bool:
        """Whether some output store could not be statically proven
        within its capacity contract — the signal that
        ``run(auto_grow=True)`` must rely on runtime guards alone."""
        return any(not f.proven for f in self.capacity_findings)

    @property
    def source(self) -> str:
        """The generated kernel source (C or Python, per backend)."""
        return self._kernel.source

    @property
    def c_backed(self) -> bool:
        """Whether the loaded artifact is compiled C (a crash takes the
        host down) rather than the Python or interpreter backend."""
        return isinstance(self._kernel, codegen_c.CKernel)

    def run(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int] = None,
        *,
        auto_grow: bool = False,
        max_capacity: Optional[int] = None,
        parallel: Optional[Union[str, bool]] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        supervised: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> Union[Tensor, float, int, bool]:
        """Execute on concrete tensors; returns the output tensor (or a
        scalar for shape-∅ kernels).

        ``parallel`` (a shard executor: ``"serial"``, ``"thread"``,
        ``"pool"``; ``False`` forces one unsharded run), ``workers``,
        ``shards``, ``supervised`` (run in a crash-isolated child: a
        segfault or runaway loop becomes a typed
        :class:`~repro.errors.KernelCrashError` /
        :class:`~repro.errors.KernelTimeoutError`) and ``deadline`` (a
        wall-clock budget in seconds, enforced wherever the run is
        isolated and advisory in process) are this call's execution
        policy.  None defers to this handle's build-time default, then
        ``REPRO_*``, then the built-in default —
        :func:`repro.runtime.policy.resolve` is the one place that
        decides, DESIGN.md "Execution policy" the account of it.

        With ``auto_grow=True`` an undersized sparse output no longer
        raises: the run is retried with geometrically doubled capacity
        (jumping straight to the reported need when it is larger) up to
        ``max_capacity`` — default ``REPRO_MAX_CAPACITY`` or the dense
        size of the output, whichever the caller supplies.  Each retry
        is logged via the ``repro`` logger.  Generated kernels bound
        every write by the allocated capacity, so an overflowing run is
        safe — only its size counters run past the end.
        """
        policy = (_resolve_policy or _bind_resolve_policy())(
            self, parallel=parallel, workers=workers, shards=shards,
            supervised=supervised, deadline=deadline,
        )
        if policy.executor is None:
            return self._run_guarded(
                tensors, capacity, policy, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
        from repro.runtime.api import run_shards

        return run_shards(
            self, tensors, policy, capacity=capacity, auto_grow=auto_grow,
            max_capacity=max_capacity,
        )

    # ------------------------------------------------------------------
    # supervised execution (repro.runtime.supervisor + breaker)
    # ------------------------------------------------------------------
    def _run_guarded(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int],
        policy,
        *,
        auto_grow: bool = False,
        max_capacity: Optional[int] = None,
    ) -> Union[Tensor, float, int, bool]:
        """One unsharded run (also each thread/serial shard's body)
        under an already resolved ``policy``."""
        if not policy.supervised:
            return self._run_single(
                tensors, capacity, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
        from repro.runtime import supervisor

        if not supervisor.can_supervise(self):
            logger.warning(
                "kernel %r: supervision requested but unavailable here "
                "(no fork and no rebuild recipe); running in-process",
                self.name,
            )
            return self._run_single(
                tensors, capacity, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
        return self._run_supervised(
            tensors, capacity, policy, auto_grow=auto_grow,
            max_capacity=max_capacity,
        )

    def _run_supervised(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int],
        policy,
        *,
        auto_grow: bool,
        max_capacity: Optional[int],
    ) -> Union[Tensor, float, int, bool]:
        """One supervised run, routed through the circuit breaker.

        closed → run supervised; a crash/timeout raises its typed error
        and counts toward the breaker threshold.  open → serve the
        pure-Python fallback without forking at all.  half-open → this
        call is the re-probe; success closes the breaker, failure
        re-opens it (with doubled backoff) and degrades to the fallback
        transparently — once callers have been getting fallback service,
        a probe failure is the breaker's business, not theirs.

        Whether the child is a fork or a resident pool worker
        (``policy.pool_route``), the typed errors — and therefore the
        breaker transitions driven here — are identical.
        """
        from repro.runtime import breaker as breaker_mod, supervisor

        key = self.cache_key or f"uncached:{self.name}"
        brk = breaker_mod.breaker
        state = brk.try_probe(key)
        if state == breaker_mod.OPEN:
            return self._run_fallback(
                tensors, capacity, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
        probe = state == breaker_mod.HALF_OPEN
        if probe:
            logger.warning(
                "kernel %r: circuit breaker half-open; re-probing the "
                "supervised kernel", self.name,
            )
        resolved = False
        try:
            result = supervisor.supervise(
                self, tensors, capacity, policy, auto_grow=auto_grow,
                max_capacity=max_capacity,
            )
            resolved = True
            brk.record_success(key, name=self.name, probe=probe)
            return result
        except (KernelCrashError, KernelTimeoutError) as exc:
            resolved = True
            brk.record_failure(key, name=self.name, probe=probe)
            if probe:
                return self._run_fallback(
                    tensors, capacity, auto_grow=auto_grow,
                    max_capacity=max_capacity, cause=exc,
                )
            raise
        finally:
            if probe and not resolved:
                # a typed child error (CapacityError, ShapeError, ...)
                # neither closes nor re-opens the breaker, but the
                # probe claim must not stay wedged in flight
                brk.release_probe(key)

    def _fallback_kernel(self) -> Optional["Kernel"]:
        """The memoized pure-Python twin of this kernel (None when there
        is no rebuild recipe to build it from)."""
        with self._fallback_lock:
            if self._fallback is None and self.recipe is not None:
                recipe = dataclasses.replace(
                    self.recipe, backend="python", vectorize=None
                )
                fb = recipe.build()
                if fb is self or fb._kernel is self._kernel:
                    # this kernel was already Python-backed, so the
                    # rebuild aliased it through the cache — serving a
                    # crashing kernel as its own fallback is useless;
                    # force a fresh (memoized here) build instead
                    fb = recipe.build(cache=False)
                # a view, never a stamp on the twin the cache may have
                # handed out elsewhere: free-split shard clones carry
                # shard-sized output dims, and the fallback must never
                # recurse into supervision
                self._fallback = fb._view(
                    output=self.output, supervised=False,
                )
            return self._fallback

    def _run_fallback(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int],
        *,
        auto_grow: bool,
        max_capacity: Optional[int],
        cause: Optional[BaseException] = None,
    ) -> Union[Tensor, float, int, bool]:
        """Serve one run from the pure-Python twin (breaker open)."""
        fb = self._fallback_kernel()
        if fb is None:
            if cause is not None:
                raise cause
            raise KernelCrashError(
                f"kernel {self.name!r}: circuit breaker is open and no "
                "Python fallback can be built (no rebuild recipe)"
            )
        logger.info(
            "kernel %r: serving the pure-Python fallback result "
            "(circuit breaker open)", self.name,
        )
        return fb._run_single(
            tensors, capacity, auto_grow=auto_grow, max_capacity=max_capacity
        )

    def _run_single(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int] = None,
        *,
        auto_grow: bool = False,
        max_capacity: Optional[int] = None,
    ) -> Union[Tensor, float, int, bool]:
        """The unsharded execution path (also each shard's body)."""
        if auto_grow and self.capacity_findings:
            if self.needs_guard:
                unproven = [f for f in self.capacity_findings if not f.proven]
                logger.debug(
                    "kernel %r: %d output store(s) not statically proven "
                    "within capacity (first: %s); auto-grow relies on the "
                    "runtime guards alone",
                    self.name, len(unproven), unproven[0],
                )
            else:
                logger.debug(
                    "kernel %r: all %d output stores statically proven "
                    "within capacity; auto-grow retries are overflow-safe",
                    self.name, len(self.capacity_findings),
                )
        cap = capacity
        while True:
            env = self._marshal_inputs(tensors)
            self._allocate_output(env, cap)
            self._kernel(env)
            try:
                return self._assemble_output(env)
            except CapacityError as exc:
                if not auto_grow:
                    raise
                current = int(env.get("out_cap", 0))
                bound = self._grow_bound(max_capacity)
                if current >= bound:
                    raise CapacityError(
                        f"output needs {exc.needed} entries but the auto-grow "
                        f"bound is {bound}; raise max_capacity/"
                        "REPRO_MAX_CAPACITY",
                        needed=exc.needed,
                        capacity=current,
                    ) from exc
                cap = min(bound, max(current * 2, exc.needed or 0))
                logger.info(
                    "kernel %r: output capacity %d too small (needs >= %s); "
                    "retrying with capacity %d",
                    self.name, current, exc.needed, cap,
                )

    def _grow_bound(self, max_capacity: Optional[int]) -> int:
        """The auto-grow ceiling: caller argument, then the
        ``REPRO_MAX_CAPACITY`` environment override, then the dense size
        of the output (an undersized result can never need more)."""
        if max_capacity is not None:
            return int(max_capacity)
        env_bound = config.get("REPRO_MAX_CAPACITY")
        if env_bound is not None:
            return env_bound
        out = self.output
        return int(np.prod(out.dims)) if out is not None and out.dims else 1

    # ------------------------------------------------------------------
    # sharded execution (repro.runtime)
    # ------------------------------------------------------------------
    def _view(self, **fields) -> "Kernel":
        """A shallow view of this kernel with ``fields`` replaced.

        Every other field is carried over and the backend kernel object
        is shared — no recompilation.  What a run writes (shard stats,
        the memoized fallback twin) starts empty and belongs to the view.
        """
        view = copy.copy(self)
        view.__dict__.update(fields)
        view._stats_lock = threading.Lock()
        view._last_shard_stats = []
        view._fallback_lock = threading.Lock()
        view._fallback = None
        return view

    def with_output_dims(self, dims: Sequence[int]) -> "Kernel":
        """A view whose :class:`OutputSpec` has ``dims``.

        Every output dimension is a *runtime* parameter of the compiled
        artifact (``out_dim*`` scalars / allocation sizes).  The shard
        runtime uses this to give each free-split shard a shard-sized
        output window.
        """
        if self.output is None:
            raise ShapeError("scalar kernels have no output dims to override")
        dims = tuple(int(d) for d in dims)
        if len(dims) != len(self.output.dims):
            raise ShapeError(
                f"expected {len(self.output.dims)} output dims, got {len(dims)}"
            )
        return self._view(
            output=OutputSpec(self.output.attrs, self.output.formats, dims)
        )

    def run_sharded(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int] = None,
        *,
        auto_grow: bool = False,
        max_capacity: Optional[int] = None,
        executor: str = "serial",
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        split_attr: Optional[str] = None,
        supervised: Optional[bool] = None,
        stats_out: Optional[List] = None,
        deadline: Optional[float] = None,
        durable: Optional[bool] = None,
        resume: Optional[str] = None,
        job_out: Optional[Dict[str, object]] = None,
    ) -> Union[Tensor, float, int, bool]:
        """Partition the operands, execute per shard, ⊕-merge:
        :func:`repro.runtime.api.run_sharded`, which documents every
        argument (per-shard failover under supervision, ``stats_out``,
        durable jobs and ``resume``, the memory budget).  Falls back to
        the single run when no split index qualifies.
        """
        from repro.runtime.api import run_sharded as _run_sharded

        return _run_sharded(
            self, tensors, capacity=capacity, auto_grow=auto_grow,
            max_capacity=max_capacity, executor=executor, workers=workers,
            shards=shards, split_attr=split_attr, supervised=supervised,
            stats_out=stats_out, deadline=deadline, durable=durable,
            resume=resume, job_out=job_out,
        )

    def run_batch(
        self,
        runs: Sequence[Mapping[str, Tensor]],
        capacity: Optional[int] = None,
        *,
        auto_grow: bool = False,
        max_capacity: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list:
        """Execute this kernel over many independent input bindings.

        The batch API for many small kernels: no sharding or merging,
        just the executor's bounded queue amortized across ``runs``.
        Results are returned in input order.
        """
        from repro.runtime.api import run_batch as _run_batch

        return _run_batch(
            self, runs, capacity=capacity, auto_grow=auto_grow,
            max_capacity=max_capacity, executor=executor, workers=workers,
            deadline=deadline,
        )

    def _marshal_inputs(self, tensors: Mapping[str, Tensor]) -> Dict[str, object]:
        env: Dict[str, object] = {}
        self._validate_dims(tensors)
        for name, spec in self.input_specs.items():
            if isinstance(spec, FunctionInput):
                continue
            tensor = tensors[name]
            _check_tensor(name, spec, tensor)
            for k, fmt in enumerate(spec.formats):
                if fmt == "sparse":
                    env[f"{name}_pos{k}"] = np.ascontiguousarray(tensor.pos[k], dtype=np.int64)
                    env[f"{name}_crd{k}"] = np.ascontiguousarray(tensor.crd[k], dtype=np.int64)
                else:
                    env[f"{name}_dim{k}"] = int(tensor.dims[k])
            env[f"{name}_vals"] = np.ascontiguousarray(
                tensor.vals, dtype=codegen_c.np_dtype(self.ops.type)
            )
        return env

    def _validate_dims(self, tensors: Mapping[str, Tensor]) -> None:
        """Every tensor (and the output) must agree on each attribute's
        dimension: generated kernels index located operands without
        bounds checks on the strength of this invariant."""
        seen: Dict[str, Tuple[int, str]] = {}
        items = []
        for name, spec in self.input_specs.items():
            if isinstance(spec, FunctionInput):
                continue
            tensor = tensors[name]
            items.append((name, tensor.attrs, tensor.dims))
        if self.output is not None:
            items.append(("output", self.output.attrs, self.output.dims))
        for name, attrs, dims in items:
            for attr, dim in zip(attrs, dims):
                if attr in seen and seen[attr][0] != int(dim):
                    other_dim, other_name = seen[attr]
                    raise ShapeError(
                        f"attribute {attr!r} has dimension {dim} in {name!r} "
                        f"but {other_dim} in {other_name!r}"
                    )
                seen[attr] = (int(dim), name)

    def bind(self, tensors: Mapping[str, Tensor], capacity: Optional[int] = None) -> "BoundKernel":
        """Pre-marshal the inputs and pre-allocate the outputs, returning
        a zero-overhead callable.  This matches the evaluation
        methodology of Section 8.2: data loaded and laid out in memory
        once, the prepared query executed repeatedly.  A compressed
        output's ``capacity`` is reserved, not initialised: the bound
        kernel commits only the pages its runs write."""
        env = self._marshal_inputs(tensors)
        self._allocate_output(env, capacity)
        return BoundKernel(self, env)

    # ------------------------------------------------------------------
    def _allocate_output(self, env: Dict[str, object], capacity: Optional[int]) -> None:
        """Put the output's storage into ``env``: a compressed output's
        capacity-sized arrays and the workspace's values and list come
        from :func:`_reserve` uninitialised, because every destination
        stores a slot before it reads it (DESIGN.md "Output storage");
        what generated code reads first is initialised, with its reason."""
        dtype = codegen_c.np_dtype(self.ops.type)
        zero = self.ops.semiring.zero
        out = self.output
        if out is None:
            # the scalar's one slot, refilled per call like a dense output
            env["out_vals"] = np.full(1, zero, dtype=dtype)
            return
        if all(f == "dense" for f in out.formats):
            # DenseDest accumulates into every slot; BoundKernel refills
            # it.  Aligned: the one output E20 saw alignment matter for
            # (a compressed output is appended a scalar at a time)
            size = int(np.prod(out.dims)) if out.dims else 1
            vals = env["out_vals"] = _aligned(size, dtype)
            vals.fill(zero)
            for k, d in enumerate(out.dims):
                env[f"out_dim{k}"] = int(d)
            return
        cap = capacity if capacity is not None else _default_capacity(out)
        dcsr = out.formats == ("sparse", "sparse")
        env["out_cap"] = cap
        env["out_vals"] = _reserve(cap, dtype)
        # a few bytes the wrapper reads back: a size is never garbage
        env["out_size"] = np.zeros(2 if dcsr else 1, dtype=np.int64)
        if out.formats == ("sparse",):
            env["out_crd0"] = _reserve(cap, np.int64)
        elif dcsr:
            rows = env["out_row_cap"] = min(out.dims[0], cap)
            env["out_crd0"] = _reserve(rows, np.int64)
            env["out_pos1"] = _reserve(rows + 1, np.int64)
            env["out_crd1"] = _reserve(cap, np.int64)
        else:
            env["out_dim0"] = int(out.dims[0])
            env["out_pos1"] = _reserve(out.dims[0] + 1, np.int64)
            env["out_crd1"] = _reserve(cap, np.int64)
        if self.ws_dim is not None:
            env["out_ws_vals"] = _reserve(self.ws_dim, dtype)
            # tested against 0 before a coordinate's first touch
            env["out_ws_mask"] = np.zeros(self.ws_dim, dtype=np.int64)
            # touched coordinates below, the sort's scratch above
            env["out_ws_list"] = _reserve(2 * self.ws_dim, np.int64)

    def _assemble_output(self, env: Dict[str, object]):
        """The result as views of the output storage (a sparse one
        views its capacity buffers, resident only where written)."""
        out = self.output
        if out is None:
            return env["out_vals"][0].item()
        sr = self.ops.semiring
        if all(f == "dense" for f in out.formats):
            return Tensor(out.attrs, out.formats, out.dims, {}, {}, env["out_vals"], sr)
        sizes = env["out_size"]
        n = int(sizes[-1])
        if n > env["out_cap"]:
            raise CapacityError(
                f"output needs {n} entries but capacity is "
                f"{env['out_cap']}; re-run with a larger capacity=",
                needed=n,
                capacity=int(env["out_cap"]),
            )
        if out.formats == ("sparse",):
            pos, crd = {0: np.array([0, n], dtype=np.int64)}, {0: env["out_crd0"][:n]}
        elif out.formats == ("dense", "sparse"):
            pos, crd = {1: env["out_pos1"]}, {1: env["out_crd1"][:n]}
        else:
            n0 = int(sizes[0])
            if n0 > env["out_row_cap"]:
                raise CapacityError(
                    f"output needs {n0} rows but row capacity is "
                    f"{env['out_row_cap']}; re-run with a larger capacity=",
                    needed=n0,
                    capacity=int(env["out_row_cap"]),
                )
            pos = {0: np.array([0, n0], dtype=np.int64), 1: env["out_pos1"][: n0 + 1]}
            crd = {0: env["out_crd0"][:n0], 1: env["out_crd1"][:n]}
        return Tensor(out.attrs, out.formats, out.dims, pos, crd, env["out_vals"][:n], sr)


class BoundKernel:
    """A kernel with inputs marshaled and outputs allocated up front.

    Calling it re-runs the kernel in place; dense output buffers are
    re-zeroed first (sparse outputs re-initialize their own counters in
    generated setup code).  Use :meth:`result` to assemble the output
    tensor after a call."""

    def __init__(self, kernel: Kernel, env: Dict[str, object]) -> None:
        self.kernel = kernel
        self.env = env
        self._dense_out = None
        out = kernel.output
        if out is None or all(f == "dense" for f in out.formats):
            self._dense_out = env["out_vals"]
        self._zero = kernel.ops.semiring.zero

    def __call__(self):
        self.run_only()
        return self.result()

    def run_only(self) -> None:
        """Execute without assembling a result object (pure kernel time)."""
        if self._dense_out is not None:
            self._dense_out.fill(self._zero)
        self.kernel._kernel(self.env)

    def result(self):
        return self.kernel._assemble_output(self.env)


def _default_capacity(out: OutputSpec) -> int:
    total = int(np.prod(out.dims)) if out.dims else 1
    return max(16, min(total, 1 << 22))


def _aligned(n: int, dtype) -> np.ndarray:
    """``n`` items of uninitialised storage.  From 512 items (a page of
    8-byte values) on, the data starts on a 64-B cache line, not
    wherever malloc's 16-B alignment and the heap's history put it:
    ``mttkrp``, whose dense output the inner loop updates a vector at a
    time, runs 8 % slower 16 B off a line at 512 items and 24 % at 9,600
    (E20).  At 256 it runs no slower, and aligning costs a per-call run
    ≈ 1 µs."""
    if n < 512:
        return np.empty(n, dtype=dtype)
    raw = np.empty(n + 64, dtype=dtype)  # a line's worth of items of any size
    # the address is a multiple of the item size, which divides 64, so
    # the distance to the next line is whole items; ``c_char.from_buffer``
    # reads it in a quarter of what ``.ctypes.data`` takes
    skip = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64 // raw.itemsize
    return raw[skip:skip + n]


def _reserve(n: int, dtype) -> np.ndarray:
    """Output storage the kernel stores into before it reads it: left
    uninitialised, so only written pages become resident.  One helper,
    so a test can poison what it returns."""
    return np.empty(n, dtype=dtype)


#: the arrays a compressed output gets from :func:`_reserve` — the
#: checked Python backend tracks which of their slots a call has stored
_RESERVED = ("out_crd0", "out_pos1", "out_crd1", "out_vals", "out_ws_vals",
             "out_ws_list")


def _check_tensor(name: str, spec: TensorInput, tensor: Tensor) -> None:
    if tuple(tensor.attrs) != spec.attrs or tuple(tensor.formats) != spec.formats:
        raise ShapeError(
            f"tensor for {name!r} has levels {tensor.attrs}/{tensor.formats}, "
            f"kernel expects {spec.attrs}/{spec.formats}"
        )


class KernelBuilder:
    """Configurable front door to the compiler.

    ``opt_level`` selects the :mod:`repro.compiler.opt` pass pipeline
    (0 = off, the seed behavior, for ablation; 2 = full, the default).
    ``vectorize`` controls the Python backend's NumPy slice emitter
    (default: on whenever ``opt_level > 0``; ignored by other
    backends).  ``cache`` enables the two-tier build cache of
    :mod:`repro.compiler.cache`.  ``parallel``/``workers`` are the
    built handle's default shard executor (run-time properties, not
    part of the cache key: the handle is then a view of the cached
    kernel, which itself carries no execution policy).
    """

    def __init__(
        self,
        ctx: TypeContext,
        semiring: Semiring,
        backend: str = "c",
        search: str = "linear",
        locate: bool = True,
        opt_level: int = DEFAULT_OPT_LEVEL,
        vectorize: Optional[bool] = None,
        cache: bool = True,
        verify: Optional[bool] = None,
        parallel: Optional[str] = None,
        workers: Optional[int] = None,
        stream_verify: Optional[bool] = None,
        tune: Optional[str] = None,
    ) -> None:
        if backend not in ("c", "python", "interp"):
            raise ValueError(f"unknown backend {backend!r}")
        if tune not in (None, "off", "auto"):
            raise ValueError(
                f"unknown tune mode {tune!r}; expected 'off' or 'auto'"
            )
        self.ctx = ctx
        self.ops = scalar_ops_for(semiring)
        self.backend = backend
        self.search = search
        self.locate = locate
        self.opt_level = int(opt_level)
        self.sanitize = config.get("REPRO_SANITIZE")
        # the checked Python emitter is scalar; vectorized slices would
        # bypass its per-subscript bounds checks
        self.vectorize = (
            backend == "python"
            and not self.sanitize
            and (vectorize if vectorize is not None else self.opt_level > 0)
        )
        self.cache = cache
        #: run the IR verifier after every optimization pass (None =
        #: the ``REPRO_IR_VERIFY`` environment toggle)
        self.verify = verify
        if parallel is not None and parallel not in config.EXECUTORS:
            raise ValueError(
                f"unknown parallel executor {parallel!r}; expected one of "
                f"{config.EXECUTORS}"
            )
        self.parallel = parallel
        self.workers = workers
        #: statically verify stream properties (monotonicity, lawfulness,
        #: termination, semiring-law obligations) in :meth:`prepare`
        #: before anything lowers (None = the ``REPRO_STREAM_VERIFY``
        #: environment toggle, default on)
        self.stream_verify = stream_verify
        #: autotune routing: "auto" consults :mod:`repro.autotune`
        #: before building, "off" never does, None defers to
        #: ``REPRO_TUNE`` (unset = off — tuning is strictly opt-in for
        #: library builds)
        self.tune = tune
        self._tune_result = None

    def _tuned_clone(
        self,
        expr: Expr,
        inputs: Mapping[str, InputLike],
        output: Optional[OutputSpec],
        name: str,
        tune: Optional[str],
    ) -> Optional["KernelBuilder"]:
        """A builder reconfigured by the autotuner, or None.

        None means: tuning is off (the resolved mode — call argument,
        then the builder's ``tune``, then ``REPRO_TUNE``, default off),
        an input is not a concrete :class:`Tensor` (no statistics to
        model), or the tuner itself failed — tuning is an optimization
        and must never turn a buildable kernel into an error.  The
        clone carries ``tune="off"`` so it cannot recurse, and the
        caller's explicit ``parallel``/``workers`` settings win over
        the tuned executor choice.
        """
        mode = tune if tune is not None else self.tune
        if mode is None:
            mode = config.get("REPRO_TUNE") or "off"
        if mode != "auto":
            return None
        if not inputs or not all(
            isinstance(b, Tensor) for b in inputs.values()
        ):
            return None
        try:
            from repro.autotune import tune_build

            result = tune_build(
                expr, self.ctx, dict(inputs), output,
                semiring=self.ops.semiring, backend=self.backend,
                name=name,
            )
        except Exception as exc:
            logger.warning(
                "autotune failed for kernel %r (%s: %s); building untuned",
                name, type(exc).__name__, exc,
            )
            return None
        d = result.decision
        clone = KernelBuilder(
            self.ctx,
            self.ops.semiring,
            backend=self.backend,
            search=d.search,
            locate=self.locate,
            opt_level=self.opt_level,
            cache=self.cache,
            verify=self.verify,
            parallel=self.parallel if self.parallel is not None else d.executor,
            workers=self.workers if self.workers is not None else d.shards,
            stream_verify=self.stream_verify,
            tune="off",
        )
        clone._tune_result = result
        return clone

    def prepare(
        self,
        expr: Expr,
        inputs: Mapping[str, InputLike],
        output: Optional[OutputSpec] = None,
        name: str = "kernel",
        attr_dims: Optional[Mapping[str, int]] = None,
        tune: Optional[str] = None,
    ) -> Tuple[Dict[str, Union[TensorInput, FunctionInput]], Dict[str, int], Optional[str]]:
        """Validate a build request and compute its cache key *without*
        compiling anything.

        Returns ``(specs, dims, key)``; ``key`` is ``None`` when the
        builder runs uncached.  This is the admission-control hook for
        the serving layer: the key identifies the kernel the request
        *would* build, so a query whose kernel the circuit breaker has
        quarantined can be rejected before any compile or fork happens.
        Every validation error (bad names, shape mismatches) raises
        here exactly as :meth:`build` would.

        ``tune="auto"`` computes the key of the kernel a *tuned*
        :meth:`build` would produce (the tuned knobs participate in the
        cache key, so tuned and untuned builds never collide).
        """
        clone = self._tuned_clone(expr, inputs, output, name, tune)
        if clone is not None:
            return clone.prepare(expr, inputs, output, name, attr_dims)
        if not _IDENT.match(name) or name.startswith("_"):
            raise ValueError(
                f"kernel name {name!r} is not a valid identifier (leading "
                "underscores are reserved for compiler temporaries)"
            )
        specs: Dict[str, Union[TensorInput, FunctionInput]] = {}
        for var, binding in inputs.items():
            if not _IDENT.match(var) or var.startswith("_"):
                raise ValueError(
                    f"variable name {var!r} is not a valid identifier (leading "
                    "underscores are reserved for compiler temporaries)"
                )
            if isinstance(binding, Tensor):
                specs[var] = TensorInput(var, binding.attrs, binding.formats, self.ops)
            else:
                specs[var] = binding

        expr_shape = shape_of(expr, self.ctx)
        out_attrs = self.ctx.schema.sort_shape(expr_shape)
        if output is None and out_attrs:
            raise ShapeError(
                f"expression has shape {out_attrs}; an OutputSpec is required"
            )
        if output is not None and tuple(output.attrs) != out_attrs:
            raise ShapeError(
                f"output attrs {output.attrs} != expression shape {out_attrs}"
            )

        dims = dict(attr_dims or {})
        if output is not None:
            for a, d in zip(output.attrs, output.dims):
                dims.setdefault(a, d)

        key = None
        if self.cache:
            key = kernel_cache_key(
                expr, specs, output,
                semiring=self.ops.semiring, backend=self.backend,
                search=self.search, locate=self.locate,
                opt_level=self.opt_level, vectorize=self.vectorize,
                name=name, attr_dims=dims, sanitize=self.sanitize,
            )

        active = (
            self.stream_verify
            if self.stream_verify is not None
            else config.get("REPRO_STREAM_VERIFY")
        )
        if active and (key is None or key not in _VERIFIED_KEYS):
            verify_expr(
                expr,
                self.ctx,
                specs=specs,
                semiring=self.ops.semiring,
                dims=dims,
                kernel=name,
            )
            if key is not None:
                _VERIFIED_KEYS.add(key)
        return specs, dims, key

    def cache_key(
        self,
        expr: Expr,
        inputs: Mapping[str, InputLike],
        output: Optional[OutputSpec] = None,
        name: str = "kernel",
        attr_dims: Optional[Mapping[str, int]] = None,
    ) -> Optional[str]:
        """The canonical cache key of the kernel :meth:`build` would
        produce — computable before (and without) compiling."""
        return self.prepare(expr, inputs, output, name, attr_dims)[2]

    def build(
        self,
        expr: Expr,
        inputs: Mapping[str, InputLike],
        output: Optional[OutputSpec] = None,
        name: str = "kernel",
        attr_dims: Optional[Mapping[str, int]] = None,
        tune: Optional[str] = None,
    ) -> Kernel:
        clone = self._tuned_clone(expr, inputs, output, name, tune)
        if clone is not None:
            return clone.build(expr, inputs, output, name, attr_dims)
        specs, dims, key = self.prepare(expr, inputs, output, name, attr_dims)
        if key is not None:
            cached = kernel_cache.lookup(key)
            if cached is not None:
                return self._attach_runtime(cached, expr, specs, output, name,
                                            dims, key=key)
            restored = self._from_payload(key, specs, output)
            if restored is not None:
                kernel_cache.store(key, restored)
                return self._attach_runtime(restored, expr, specs, output,
                                            name, dims, key=key)
            kernel_cache.record_miss()

        ng = NameGen()
        stream = lower(
            expr, self.ctx, specs, self.ops, ng, search=self.search,
            attr_dims=dims, locate=self.locate,
        )

        workspace = _workspace_needed(stream, output)
        dest, out_params, size_stores = _build_dest(output, self.ops, ng, workspace)
        body = PSeq(
            dest.setup(),
            compile_stream(dest, stream, ng),
            dest.finalize(),
            size_stores,
        )

        params: list = []
        for var in sorted(specs):
            params.extend(specs[var].params())
        params.extend(out_params)

        body = optimize(body, ng, self.opt_level,
                        verify=self.verify, params=params)
        _check_no_shadowing(name, params, ng)
        # the name generator hands out temporaries that lowering and the
        # optimiser then never use; a kernel declares the ones its body names
        named = stmt_reads(body) | stmt_effects(body)[0]
        decls = [v for v in ng.allocated if v.name in named]

        findings = lint_bounds(
            body,
            dest.contracts(),
            params=[p.name for p in params],
            decls=[v.name for v in decls],
        )

        backend_used = self.backend
        sparse = output is not None and "sparse" in output.formats
        reserved = _RESERVED if sparse else ()
        if self.backend == "c":
            try:
                source = codegen_c.emit_kernel_source(name, params, decls, body)
                backend_kernel = codegen_c.CKernel(source, name, params)
            except (BackendUnavailableError, CompileError) as exc:
                if not config.get("REPRO_BACKEND_FALLBACK"):
                    raise
                logger.warning(
                    "C backend failed for kernel %r (%s); falling back to the "
                    "Python backend (set REPRO_BACKEND_FALLBACK=0 to fail "
                    "instead)", name, exc,
                )
                backend_kernel = codegen_py.PyKernel(
                    name, params, decls, body,
                    vectorize=self.opt_level > 0 and not self.sanitize,
                    checked=bool(self.sanitize), reserved=reserved,
                )
                backend_used = "python"
        elif self.backend == "python":
            backend_kernel = codegen_py.PyKernel(
                name, params, decls, body, vectorize=self.vectorize,
                checked=bool(self.sanitize), reserved=reserved,
            )
        else:
            backend_kernel = InterpKernel(name, params, decls, body)
        kernel = Kernel(name, backend_kernel, params, specs, output, self.ops,
                        body, decls=decls)
        kernel.ws_dim = output.dims[-1] if workspace else None
        kernel.capacity_findings = findings

        if key is not None:
            kernel_cache.store(key, kernel)
            self._store_payload(key, kernel, body, backend_used)
        return self._attach_runtime(kernel, expr, specs, output, name, dims,
                                    key=key)

    def _attach_runtime(
        self,
        kernel: Kernel,
        expr: Expr,
        specs: Dict[str, Union[TensorInput, FunctionInput]],
        output: Optional[OutputSpec],
        name: str,
        attr_dims: Dict[str, int],
        key: Optional[str] = None,
    ) -> Kernel:
        """Give the kernel its rebuild recipe and cache key — functions
        of the build, like the kernel itself — and return the handle:
        a view carrying this builder's execution defaults when it has
        any, else the shared object.

        Runs on every return path of :meth:`build` (memo hit, payload
        restore, fresh build) so cache-restored kernels are just as
        shardable as fresh ones.  ``FunctionInput`` bindings hold
        arbitrary callables and cannot cross a process boundary, so
        such kernels get no recipe.
        """
        if kernel.recipe is None and all(
            isinstance(s, TensorInput) for s in specs.values()
        ):
            kernel.recipe = KernelRecipe(
                expr=expr,
                ctx=self.ctx,
                input_structure=tuple(
                    (var, specs[var].attrs, specs[var].formats)
                    for var in sorted(specs)
                ),
                output=output,
                semiring=self.ops.semiring,
                backend=self.backend,
                search=self.search,
                locate=self.locate,
                opt_level=self.opt_level,
                vectorize=self.vectorize,
                name=name,
                attr_dims=tuple(sorted(attr_dims.items())),
            )
        if key is not None:
            kernel.cache_key = key
        defaults = {
            field: value
            for field, value in (
                ("parallel", self.parallel),
                ("workers", self.workers),
                ("tune_decision", self._tune_result),
            )
            if value is not None
        }
        return kernel._view(**defaults) if defaults else kernel

    # ------------------------------------------------------------------
    # disk tier (tier 2): emitted source + metadata, no re-lowering
    # ------------------------------------------------------------------
    def _from_payload(
        self,
        key: str,
        specs: Dict[str, Union[TensorInput, FunctionInput]],
        output: Optional[OutputSpec],
    ) -> Optional[Kernel]:
        if self.backend not in ("c", "python"):
            return None
        payload = kernel_cache.load_payload(key)
        if payload is None:
            return None
        # `backend` is what the stored source targets; `requested_backend`
        # is what the builder originally asked for (they differ when the
        # stored kernel was itself a logged C→Python fallback)
        requested = payload.get("requested_backend", payload.get("backend"))
        backend = payload.get("backend")
        if requested != self.backend or backend not in ("c", "python"):
            return None
        if backend == "python" and requested == "c" and resilience.toolchain_available(refresh=True):
            logger.info(
                "toolchain available again; rebuilding key %s... with the C "
                "backend instead of its cached fallback", key[:12],
            )
            return None
        try:
            name = payload["name"]
            params = [Param(n, k, t) for n, k, t in payload["params"]]
            source = payload["source"]
            findings = [BoundsFinding(**f)
                        for f in payload.get("capacity_findings", ())]
            if backend == "c":
                backend_kernel = codegen_c.CKernel(source, name, params)
            else:
                backend_kernel = codegen_py.PyKernel.from_source(name, params, source)
        except BackendUnavailableError as exc:
            # the payload is fine but the toolchain is gone: a fresh
            # build will go through the (logged) backend-fallback path
            logger.warning(
                "cached C kernel for key %s... not rebuildable (%s); "
                "re-lowering", key[:12], exc,
            )
            return None
        except Exception as exc:
            logger.warning(
                "corrupted kernel cache payload for key %s... (%s: %s); "
                "invalidating the entry and rebuilding",
                key[:12], type(exc).__name__, exc,
            )
            kernel_cache.invalidate_payload(key)
            return None
        kernel = Kernel(name, backend_kernel, params, specs, output, self.ops, None)
        kernel.ws_dim = payload.get("ws_dim")
        kernel.capacity_findings = findings
        return kernel

    def _store_payload(
        self, key: str, kernel: Kernel, body, backend_used: Optional[str] = None
    ) -> None:
        backend_used = backend_used or self.backend
        if backend_used not in ("c", "python"):
            return
        ops: Dict[str, object] = {}
        codegen_py._collect_ops(body, ops)
        if ops:
            return  # user-defined op callables cannot be serialized
        kernel_cache.store_payload(
            key,
            {
                "backend": backend_used,
                "requested_backend": self.backend,
                "name": kernel.name,
                "params": [[p.name, p.kind, p.ctype] for p in kernel.params],
                "source": kernel.source,
                "ws_dim": kernel.ws_dim,
                # the lint verdict decides auto-supervision (policy.resolve)
                "capacity_findings": [
                    dataclasses.asdict(f) for f in kernel.capacity_findings],
            },
        )


def _check_no_shadowing(name: str, params: Sequence[Param], ng: NameGen) -> None:
    """Compiled programs must keep compiler temporaries and user/source
    names in disjoint namespaces: every generated local carries the
    reserved ``NameGen.RESERVED_PREFIX`` and no parameter may collide
    with one.  A violation is a compiler bug, reported as a verifier
    error rather than silently shadowing."""
    param_names = {p.name for p in params}
    collisions = sorted(
        {v.name for v in ng.allocated} & param_names
    )
    if collisions:
        raise IRVerifyError(
            f"kernel {name!r}: generated temporaries shadow parameters: "
            f"{collisions}",
            violations=collisions,
        )
    reserved = sorted(
        n for n in param_names if n.startswith(NameGen.RESERVED_PREFIX)
    )
    if reserved:
        raise IRVerifyError(
            f"kernel {name!r}: parameter names {reserved} use the reserved "
            f"temporary prefix {NameGen.RESERVED_PREFIX!r}",
            violations=reserved,
        )


def _level_sequence(stream) -> list:
    """The full level labels of a lowered stream, dummy levels included."""
    seq = []
    s = stream
    while is_sstream(s):
        seq.append(s.attr)
        s = s.value
    return seq


def _workspace_needed(stream, output: Optional[OutputSpec]) -> bool:
    """Whether the last output level is revisited out of order.

    An output level receives in-order pushes as long as no contracted
    (dummy) level sits between it and the previous output level in the
    compiled loop nest; a dummy level in between re-runs the inner loop
    for the same slice (e.g. Σ_j above the k loop in matmul).  Dense
    outputs accumulate by random access and never need a workspace.
    """
    if output is None or all(f == "dense" for f in output.formats):
        return False
    seq = _level_sequence(stream)
    prev = -1
    revisited = []
    for attr in output.attrs:
        p = seq.index(attr)
        revisited.append(any(seq[k] is STAR for k in range(prev + 1, p)))
        prev = p
    if any(revisited[:-1]):
        k = revisited.index(True)
        raise ShapeError(
            f"output level {output.attrs[k]!r} ({output.formats[k]}) of a "
            "compressed output sits under a contracted level, which revisits "
            f"it out of order (loop nest {seq}); only the innermost output "
            "level has a workspace — materialize a temporary or choose an "
            "all-dense output"
        )
    return revisited[-1]


def _build_dest(output: Optional[OutputSpec], ops: ScalarOps, ng: NameGen, workspace: bool = False):
    """Destination + output params + size bookkeeping for an OutputSpec."""
    vtype = ops.type
    if output is None:
        acc = ng.fresh("acc", vtype)
        dest = ScalarDest(ops, acc, out_array="out_vals")
        return dest, [Param("out_vals", "array", vtype)], PSeq()
    fmts = tuple(output.formats)
    if all(f == "dense" for f in fmts):
        dims = [EVar(f"out_dim{k}", TINT) for k in range(len(fmts))]
        dest = DenseDest(ops, "out_vals", dims)
        params = [Param(f"out_dim{k}", "scalar", TINT) for k in range(len(fmts))]
        params.append(Param("out_vals", "array", vtype))
        return dest, params, PSeq()

    ws_params = [
        Param("out_ws_vals", "array", vtype),
        Param("out_ws_mask", "array", TINT),
        Param("out_ws_list", "array", TINT),
    ]

    cap = EVar("out_cap", TINT)
    cap_params = [Param("out_cap", "scalar", TINT)]

    def leaf_dest(crd: str, counter):
        if workspace:
            return WorkspaceLeafDest(
                ops, ng, crd, "out_vals", counter,
                "out_ws_vals", "out_ws_mask", "out_ws_list", cap,
            )
        return SparseLeafDest(ops, crd, "out_vals", counter, cap)

    if fmts == ("sparse",):
        n = ng.fresh("on", TINT)
        dest = leaf_dest("out_crd0", n)
        params = [
            Param("out_crd0", "array", TINT),
            Param("out_vals", "array", vtype),
            Param("out_size", "array", TINT),
        ] + cap_params + (ws_params if workspace else [])
        return dest, params, PStore("out_size", ilit(0), n)
    if fmts == ("dense", "sparse"):
        n1 = ng.fresh("on", TINT)
        leaf = leaf_dest("out_crd1", n1)
        dest = DensePosDest(ops, ng, EVar("out_dim0", TINT), "out_pos1", leaf, n1)
        params = [
            Param("out_dim0", "scalar", TINT),
            Param("out_pos1", "array", TINT),
            Param("out_crd1", "array", TINT),
            Param("out_vals", "array", vtype),
            Param("out_size", "array", TINT),
        ] + cap_params + (ws_params if workspace else [])
        return dest, params, PStore("out_size", ilit(0), n1)
    if fmts == ("sparse", "sparse"):
        n1 = ng.fresh("on", TINT)
        n0 = ng.fresh("on", TINT)
        leaf = leaf_dest("out_crd1", n1)
        dest = SparseInnerDest(
            ops, ng, "out_crd0", n0, "out_pos1", leaf, n1,
            EVar("out_row_cap", TINT),
        )
        params = [
            Param("out_crd0", "array", TINT),
            Param("out_pos1", "array", TINT),
            Param("out_crd1", "array", TINT),
            Param("out_vals", "array", vtype),
            Param("out_size", "array", TINT),
        ] + cap_params + [Param("out_row_cap", "scalar", TINT)] + (
            ws_params if workspace else []
        )
        sizes = PSeq(
            PStore("out_size", ilit(0), n0),
            PStore("out_size", ilit(1), n1),
        )
        return dest, params, sizes
    raise ShapeError(f"unsupported output formats {fmts}")


def compile_kernel(
    expr: Expr,
    ctx: TypeContext,
    inputs: Mapping[str, InputLike],
    output: Optional[OutputSpec] = None,
    semiring: Optional[Semiring] = None,
    backend: str = "c",
    search: str = "linear",
    name: str = "kernel",
    attr_dims: Optional[Mapping[str, int]] = None,
    locate: bool = True,
    opt_level: int = DEFAULT_OPT_LEVEL,
    vectorize: Optional[bool] = None,
    cache: bool = True,
    verify: Optional[bool] = None,
    parallel: Optional[str] = None,
    workers: Optional[int] = None,
    stream_verify: Optional[bool] = None,
    tune: Optional[str] = None,
) -> Kernel:
    """One-call convenience wrapper around :class:`KernelBuilder`.

    ``tune="auto"`` routes the build through :mod:`repro.autotune`
    (search strategy, executor and shard count chosen by the cost
    model); ``tune="off"`` never does; None defers to the
    ``REPRO_TUNE`` environment knob (unset = off).
    """
    if semiring is None:
        for binding in inputs.values():
            if isinstance(binding, Tensor):
                semiring = binding.semiring
                break
        else:
            raise ValueError("semiring not given and not inferable from inputs")
    builder = KernelBuilder(ctx, semiring, backend=backend, search=search,
                            locate=locate, opt_level=opt_level,
                            vectorize=vectorize, cache=cache, verify=verify,
                            parallel=parallel, workers=workers,
                            stream_verify=stream_verify, tune=tune)
    return builder.build(expr, inputs, output, name=name, attr_dims=attr_dims)
