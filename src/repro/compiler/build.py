"""Kernel building: expression + formats → a compiled :class:`Kernel`.

:func:`compile_kernel` runs the full Etch pipeline of Figure 1 — lower
the contraction expression to syntactic streams, emit the loop nest
with the destination-passing compile function, generate C (or Python),
build, and wrap the result as a :class:`~repro.compiler.kernel.Kernel`
— behind the two-tier build cache (:mod:`repro.compiler.cache`).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro import config
from repro.compiler import codegen_c, codegen_py, resilience
from repro.compiler.analysis.dataflow import (
    expr_uses, stmt_effects, stmt_exprs, substatements,
)
from repro.compiler.analysis.streamprops import verify_expr
from repro.compiler.cache import kernel_cache, kernel_cache_key
from repro.compiler.compile_fn import compile_stream
from repro.compiler.dest import build_dest, workspace_needed
from repro.compiler.formats import FunctionInput, Param, TensorInput
from repro.compiler.interp import InterpKernel
from repro.compiler.ir import P, NameGen, PSearch, PSeq
from repro.compiler.kernel import _RESERVED, Kernel, OutputSpec, Pending
from repro.compiler.lower import lower
from repro.compiler.opt import DEFAULT_OPT_LEVEL, check_level, optimize
from repro.compiler.resilience import logger
from repro.compiler.scalars import scalar_ops_for
from repro.data.tensor import Tensor
from repro.errors import (
    BackendUnavailableError,
    CompileError,
    IRVerifyError,
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

#: ``repro.autotune.tune_build``, which ``repro/__init__.py`` binds: the
#: tuner sits beside the builder and builds kernels itself, so the
#: builder reaches it through this name and never imports it
tune_build = None

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
    #: ``(var, attrs, formats, crd_types)`` per input
    input_structure: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...],
                                 Tuple[Optional[str], ...]], ...]
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
            var: TensorInput(var, attrs, formats, builder.ops, crd_types)
            for var, attrs, formats, crd_types in self.input_structure
        }
        return builder.build(
            self.expr, specs, self.output, name=self.name,
            attr_dims=dict(self.attr_dims),
        )


class KernelBuilder:
    """Configurable front door to the compiler.

    ``opt_level`` turns the :mod:`repro.compiler.opt` pipeline for the
    backend on (the default) or off (0, the seed behavior, for ablation).
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
        self.opt_level = check_level(opt_level)
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
        clone carries ``tune="off"`` so it cannot recurse, and keeps
        the caller's ``parallel``/``workers``: the tuner picks a plan,
        never how it runs.
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
            result = tune_build(
                expr, self.ctx, dict(inputs), output,
                semiring=self.ops.semiring, backend=self.backend,
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
            parallel=self.parallel,
            workers=self.workers,
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
        return self._prepare(expr, inputs, output, name, attr_dims, tune)[1:]

    def _prepare(
        self,
        expr: Expr,
        inputs: Mapping[str, InputLike],
        output: Optional[OutputSpec] = None,
        name: str = "kernel",
        attr_dims: Optional[Mapping[str, int]] = None,
        tune: Optional[str] = None,
    ) -> tuple:
        """:meth:`prepare`, led by the builder that compiles the request
        (this one or the autotuner's clone), for :meth:`build`."""
        clone = self._tuned_clone(expr, inputs, output, name, tune)
        if clone is not None:
            return clone._prepare(expr, inputs, output, name, attr_dims)
        specs: Dict[str, Union[TensorInput, FunctionInput]] = {}
        for kind, ident in [("kernel", name), *(("variable", v) for v in inputs)]:
            if not _IDENT.match(ident) or ident.startswith("_"):
                raise ValueError(
                    f"{kind} name {ident!r} is not a valid identifier (leading "
                    "underscores are reserved for compiler temporaries)"
                )
        for var, binding in inputs.items():
            if isinstance(binding, Tensor):
                specs[var] = TensorInput.of(var, binding, self.ops)
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
        return self, specs, dims, key

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
        _prepared: Optional[tuple] = None,
    ) -> Kernel:
        """Compile (or cache-restore) the kernel; ``_prepared`` is what
        :meth:`_prepare` already returned for this very request."""
        prepared = _prepared or self._prepare(
            expr, inputs, output, name, attr_dims, tune)
        builder, specs, dims, key = prepared
        if builder is not self:     # the autotuner's clone compiles
            return builder.build(expr, inputs, output, name, attr_dims,
                                 _prepared=prepared)
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

        workspace = workspace_needed(stream, output)
        dest, out_params, size_stores = build_dest(output, self.ops, ng, workspace)
        raw = PSeq(
            dest.setup(),
            compile_stream(dest, stream, ng),
            dest.finalize(),
            size_stores,
        )

        params: list = []
        for var in sorted(specs):
            params.extend(specs[var].params())
        params.extend(out_params)

        def optimized(target: str):
            body = optimize(raw, ng, self.opt_level, target=target,
                            verify=self.verify, params=params)
            return body, _used(body, ng.allocated), _used(body, params)

        body, decls, taken = optimized(self.backend)
        _check_no_shadowing(name, params, ng)

        sparse = output is not None and "sparse" in output.formats

        def kernel_of(backend_kernel, taken, decls, body) -> Kernel:
            kernel = Kernel(name, backend_kernel, taken, specs, output,
                            self.ops, body, decls=decls)
            kernel.ws_dim = output.dims[-1] if workspace else None
            return kernel

        def python_kernel(body, decls, taken, vectorize) -> Kernel:
            return kernel_of(codegen_py.PyKernel(
                name, taken, decls, body, vectorize=vectorize,
                checked=bool(self.sanitize), reserved=_RESERVED if sparse else (),
            ), taken, decls, body)

        def fall_back(exc: Exception) -> Kernel:
            """The kernel a failed C build falls back to, its payload
            stored: the body optimised again, for Python — the passes
            gcc would have done.  Under ``REPRO_BACKEND_FALLBACK=0``,
            ``exc`` itself."""
            if not config.get("REPRO_BACKEND_FALLBACK"):
                raise exc
            logger.warning(
                "C backend failed for kernel %r (%s); falling back to the "
                "Python backend (set REPRO_BACKEND_FALLBACK=0 to fail "
                "instead)", name, exc,
            )
            kernel = python_kernel(*optimized("python"),
                                   vectorize=self.opt_level > 0 and not self.sanitize)
            if key is not None:
                self._store_payload(key, kernel, "python", kernel.source)
            return kernel

        if self.backend == "c":
            # gcc runs while the caller goes on: the kernel's first call
            # joins it, or this build does when a failure must raise here
            source = codegen_c.emit_kernel_source(name, taken, decls, body)
            try:
                kernel = kernel_of(
                    Pending(codegen_c.start(source, name, taken), fall_back),
                    taken, decls, body)
            except (BackendUnavailableError, CompileError) as exc:
                kernel = fall_back(exc)
            else:
                if not config.get("REPRO_BACKEND_FALLBACK"):
                    kernel.join()
                if key is not None:
                    self._store_payload(key, kernel, "c", source)
        elif self.backend == "python":
            kernel = python_kernel(body, decls, taken, self.vectorize)
            if key is not None:
                self._store_payload(key, kernel, "python", kernel.source)
        else:
            kernel = kernel_of(InterpKernel(name, taken, decls, body),
                               taken, decls, body)

        if key is not None:
            kernel_cache.store(key, kernel)
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
                    (var, specs[var].attrs, specs[var].formats,
                     specs[var].crd_types)
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
        return kernel

    def _store_payload(self, key: str, kernel: Kernel, backend_used: str,
                       source: str) -> None:
        """The disk tier's entry for ``kernel``, whose generated
        ``source`` targets ``backend_used`` (given, not read: a C
        kernel's build may still be in flight)."""
        ops: Dict[str, object] = {}
        codegen_py._collect_ops(kernel.loop_ir, ops)
        if ops:
            return  # user-defined op callables cannot be serialized
        kernel_cache.store_payload(
            key,
            {
                "backend": backend_used,
                "requested_backend": self.backend,
                "name": kernel.name,
                "params": [[p.name, p.kind, p.ctype] for p in kernel.params],
                "source": source,
                "ws_dim": kernel.ws_dim,
            },
        )


def _used(body: P, names: Sequence) -> list:
    """The temporaries or parameters of ``names`` that ``body`` reads or
    writes: a kernel declares and takes no others, so an operand level
    its loop nest never touches (a ``dim`` a sparse level bounds, a
    ``crd`` only a locate would read) is neither in its signature nor
    marshalled per call."""
    assigned, stored = stmt_effects(body)
    named = assigned | stored

    def walk(s: P) -> None:
        for e in stmt_exprs(s):
            expr_uses(e, named, named)
        if isinstance(s, PSearch):
            named.add(s.array)
        for sub in substatements(s):
            walk(sub)

    walk(body)
    return [x for x in names if x.name in named]


def c_program(kernel: Kernel) -> Tuple[P, str]:
    """The loop program and C source a C build of ``kernel``'s recipe
    emits, without a toolchain: the recipe lowered unoptimised, then
    optimised for C."""
    raw = dataclasses.replace(kernel.recipe, backend="interp", opt_level=0).build(cache=False)
    body = optimize(raw.loop_ir, NameGen(), kernel.recipe.opt_level, target="c")
    return body, codegen_c.emit_kernel_source(
        kernel.name, _used(body, raw.params), _used(body, raw.decls), body)


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

    A C kernel comes back with its gcc still running: its first
    ``run``, ``bind``, ``execute``, ``source`` or ``c_backed`` (or
    ``join()``) waits for the build, and a gcc failure surfaces there —
    as the logged Python fallback, or, under
    ``REPRO_BACKEND_FALLBACK=0``, as the error, raised here instead
    (DESIGN.md "Builds in flight").

    ``tune="auto"`` routes the build through :mod:`repro.autotune`
    (search strategy chosen by the cost model); ``tune="off"`` never
    does; None defers to the ``REPRO_TUNE`` environment knob (unset =
    off).
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
