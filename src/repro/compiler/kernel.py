"""The compiled artifact: a :class:`Kernel` and its data plane.

Figure 1's pipeline ends here: generated C (or Python) plus what lays
:class:`~repro.data.Tensor` operands out as its parameters and allocates
and assembles its output.  :meth:`Kernel.execute`, one in-process run,
is the artifact's one entry.  Building a kernel is
:mod:`repro.compiler.build`; how a call runs (shards, pool, supervision,
the breaker's fallback) is :mod:`repro.runtime`, which the compiler sits
below and does not import (DESIGN.md §4).
"""

from __future__ import annotations

import copy
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler import codegen_c
from repro.compiler.formats import FunctionInput, Param, TensorInput
from repro.compiler.ir import EVar
from repro.compiler.resilience import logger
from repro.compiler.scalars import ScalarOps
from repro.data.tensor import Tensor, crd_dtype
from repro.errors import CapacityError, ShapeError


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


#: the module that decides how a call runs, :mod:`repro.runtime`:
#: ``repro/__init__.py`` puts a stand-in here that imports it on the
#: first call, so the compiler never imports the layer above it
runtime = None


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
        #: the parameter names: an operand level no parameter names is
        #: not marshalled
        self._taken = frozenset(p.name for p in self.params)
        #: the element type of each array parameter (a ``crd`` is at
        #: the width it was compiled for)
        self._dtypes = {p.name: np.dtype(codegen_c.np_dtype(p.ctype))
                        for p in self.params if p.kind == "array"}
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
        #: picklable rebuild instructions for pool workers, a
        #: :class:`~repro.compiler.build.KernelRecipe` attached by the
        #: builder (None when an input is a :class:`FunctionInput`)
        self.recipe = None
        #: this handle's build-time execution defaults, between the call
        #: argument and ``REPRO_*`` in :func:`repro.runtime.policy.resolve`.
        #: The memoized kernel carries none: a build that asks for any
        #: returns a :meth:`_view`, so one caller's defaults never reach
        #: another holder of the same cached object.
        self.parallel: Optional[str] = None
        self.workers: Optional[int] = None
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
    def source(self) -> str:
        """The generated kernel source (C or Python, per backend)."""
        return self._kernel.source

    @property
    def c_backed(self) -> bool:
        """Whether the loaded artifact is compiled C (a crash takes the
        host down) rather than the Python or interpreter backend."""
        return isinstance(self._kernel, codegen_c.CKernel)

    # how a call runs is the runtime's decision; these forward to it
    def run(self, tensors, capacity=None, **options):
        """:func:`repro.runtime.run` on this kernel."""
        return runtime.run(self, tensors, capacity=capacity, **options)

    def run_sharded(self, tensors, capacity=None, **options):
        """:func:`repro.runtime.run_sharded` on this kernel."""
        return runtime.run_sharded(self, tensors, capacity=capacity, **options)

    def execute(
        self,
        tensors: Mapping[str, Tensor],
        capacity: Optional[int] = None,
    ) -> Union[Tensor, float, int, bool]:
        """One in-process run on concrete tensors; returns the output
        tensor (or a scalar for shape-∅ kernels).  Every route a call
        takes — in process, a shard, a pool worker, the
        breaker's fallback — ends here.

        A compressed output reserves ``capacity`` entries (default:
        :func:`_default_capacity`).  An output sizes itself: generated
        kernels guard every append by the reservation and keep counting
        past it, so a run that overflowed is a count pass — it reports
        the exact size, and one rerun at that size, logged via the
        ``repro`` logger, is the result.  A rerun that overflows again
        breaks that invariant and raises :class:`CapacityError`.
        """
        env = self._marshal_inputs(tensors)
        self._allocate_output(env, capacity)
        self._kernel(env)
        try:
            return self._assemble_output(env)
        except CapacityError as exc:
            needed, reserved = exc.needed, exc.capacity
        logger.info(
            "kernel %r: output needs %d entries, %d were reserved; "
            "rerunning at that size", self.name, needed, reserved,
        )
        self._allocate_output(env, needed)
        self._kernel(env)
        return self._assemble_output(env)

    # ------------------------------------------------------------------
    # views: one artifact, per-handle defaults and output dims
    # ------------------------------------------------------------------
    def _view(self, **fields) -> "Kernel":
        """A shallow view of this kernel with ``fields`` replaced.

        Every other field is carried over and the backend kernel object
        is shared — no recompilation.  What a run writes (shard stats)
        starts empty and belongs to the view.
        """
        view = copy.copy(self)
        view.__dict__.update(fields)
        view._stats_lock = threading.Lock()
        view._last_shard_stats = []
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
        for k, d in enumerate(dims):
            width = self._dtypes.get(f"out_crd{k}")
            if width is not None and crd_dtype(d).itemsize > width.itemsize:
                raise ShapeError(
                    f"output level {k} of dimension {d} needs a wider crd "
                    f"than the {width} the kernel was compiled for"
                )
        return self._view(
            output=OutputSpec(self.output.attrs, self.output.formats, dims)
        )

    def _marshal_inputs(self, tensors: Mapping[str, Tensor]) -> Dict[str, object]:
        env: Dict[str, object] = {}
        self._validate_dims(tensors)
        taken = self._taken
        for name, spec in self.input_specs.items():
            if isinstance(spec, FunctionInput):
                continue
            tensor = tensors[name]
            if (tuple(tensor.attrs), tuple(tensor.formats)) != (spec.attrs, spec.formats):
                raise ShapeError(
                    f"tensor for {name!r} has levels {tensor.attrs}/{tensor.formats}, "
                    f"kernel expects {spec.attrs}/{spec.formats}"
                )
            for k, fmt in enumerate(spec.formats):
                if fmt == "sparse":
                    if f"{name}_pos{k}" in taken:
                        env[f"{name}_pos{k}"] = np.ascontiguousarray(
                            tensor.pos[k], dtype=np.int64)
                    if f"{name}_crd{k}" not in taken:
                        continue
                    # read in place at the width compiled for, never cast
                    crd, want = tensor.crd[k], self._dtypes[f"{name}_crd{k}"]
                    if crd.dtype != want:
                        raise ShapeError(
                            f"tensor for {name!r} stores crd{k} as {crd.dtype}, "
                            f"the kernel reads {want}: build it for this tensor"
                        )
                    env[f"{name}_crd{k}"] = np.ascontiguousarray(crd)
                elif f"{name}_dim{k}" in taken:
                    env[f"{name}_dim{k}"] = int(tensor.dims[k])
            if f"{name}_vals" in taken:
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
        what generated code reads first is initialised, with its reason.
        A reservation past the output's dense size can never be needed
        and is cut to it."""
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"capacity={capacity!r}: an output reserves at least one entry"
            )
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
        size = int(np.prod(out.dims))
        cap = _default_capacity(size) if capacity is None else max(
            1, min(capacity, size))
        dcsr = out.formats == ("sparse", "sparse")
        env["out_cap"] = cap
        env["out_vals"] = _reserve(cap, dtype)
        # a few bytes the wrapper reads back: a size is never garbage
        env["out_size"] = np.zeros(2 if dcsr else 1, dtype=np.int64)
        # each crd at the width of the compiled dimension
        crd = self._dtypes
        if out.formats == ("sparse",):
            env["out_crd0"] = _reserve(cap, crd["out_crd0"])
        elif dcsr:
            rows = env["out_row_cap"] = min(out.dims[0], cap)
            env["out_crd0"] = _reserve(rows, crd["out_crd0"])
            env["out_pos1"] = _reserve(rows + 1, np.int64)
            env["out_crd1"] = _reserve(cap, crd["out_crd1"])
        else:
            env["out_dim0"] = int(out.dims[0])
            env["out_pos1"] = _reserve(out.dims[0] + 1, np.int64)
            env["out_crd1"] = _reserve(cap, crd["out_crd1"])
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
        return Tensor(out.attrs, out.formats, out.dims, pos, crd,
                      env["out_vals"][:n], sr, check=False)


class BoundKernel:
    """A kernel with inputs marshaled and outputs allocated up front.

    Calling it re-runs the kernel in place; dense output buffers are
    re-zeroed first (sparse outputs re-initialize their own counters in
    generated setup code).  Use :meth:`result` to assemble the output
    tensor after a call.

    ``env`` is the call's storage for good: a C kernel's arguments —
    each array's address — are taken once, here, so every call reads
    and writes the arrays ``env`` held at bind (and keeps alive).  Edit
    an operand in place (``t.vals[...] = x`` shows in the next call);
    an entry of ``env`` replaced after bind is never read."""

    def __init__(self, kernel: Kernel, env: Dict[str, object]) -> None:
        self.kernel = kernel
        self.env = env
        self._dense_out = None
        out = kernel.output
        if out is None or all(f == "dense" for f in out.formats):
            self._dense_out = env["out_vals"]
        self._zero = kernel.ops.semiring.zero
        backend = kernel._kernel
        self._run = (backend.bound(env) if kernel.c_backed
                     else functools.partial(backend, env))

    def __call__(self):
        self.run_only()
        return self.result()

    def run_only(self) -> None:
        """Execute without assembling a result object (pure kernel time)."""
        if self._dense_out is not None:
            self._dense_out.fill(self._zero)
        self._run()

    def result(self):
        return self.kernel._assemble_output(self.env)


def _default_capacity(size: int) -> int:
    """The first reservation of an output of dense ``size``."""
    return max(16, min(size, 1 << 22))


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


def __getattr__(name: str):
    # ``bench/programs.py`` and ``bench/layers.py`` import these from
    # here, as before the builder and the destination moved out; looked
    # up on access, because both of their modules import this one
    where = {"KernelBuilder": "build.KernelBuilder",
             "compile_kernel": "build.compile_kernel",
             "_build_dest": "dest.build_dest",
             "_workspace_needed": "dest.workspace_needed"}.get(name)
    if where is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = where.split(".")
    return getattr(importlib.import_module(f"repro.compiler.{module}"), attr)
