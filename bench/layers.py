"""Outside-in decompositions: a library op re-executed as the sequence
of calls the library itself makes, each inside a span.

Nothing in ``src/`` is instrumented; the spans are recorded here,
around calls into each layer.  ``trace.coverage`` (child spans ÷ the
untraced median of the same op) is the check that a decomposition
still matches what the library does.
"""

from __future__ import annotations

import sys
from typing import Any, Tuple

from bench.spans import Tracer


def count_statements(p) -> int:
    """Number of **P** statements in a loop-nest IR (leaf statements
    plus one per ``while``/``if``); comments and skips do not count."""
    from repro.compiler.ir import PIf, PSeq, PSkip, PWhile, PComment

    if p is None or isinstance(p, (PSkip, PComment)):
        return 0
    if isinstance(p, PSeq):
        return sum(count_statements(q) for q in p.items)
    if isinstance(p, PWhile):
        return 1 + count_statements(p.body)
    if isinstance(p, PIf):
        return 1 + count_statements(p.then) + count_statements(p.els)
    return 1


def _execution_policy() -> None:
    # what Kernel.run asks before it runs anything: the default executor
    # and the supervision policy, one environment read each
    from repro.compiler import resilience

    resilience.parallel_backend()
    resilience.supervise_mode()


def traced_run(tracer: Tracer, kernel, tensors, capacity=None) -> Any:
    """``Kernel.run`` on the in-process path: resolve the execution
    policy, validate + marshal + allocate, execute, assemble."""
    tracer.call("kernel.policy", _execution_policy)
    bound = tracer.call("kernel.bind", kernel.bind, tensors, capacity)
    tracer.call("kernel.exec", bound.run_only)
    return tracer.call("kernel.assemble", bound.result)


def traced_build(tracer: Tracer, program, name: str, backend: str) -> Tuple[int, int]:
    """A cold ``compile_kernel``, split by layer when the library still
    has the shape :func:`_build_by_layer` expects, and as one span when
    it does not — a refactor of the builder must make the trace
    coarser, not make the benchmark fail."""
    try:
        return _build_by_layer(tracer, program, name, backend)
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"[bench] build decomposition is out of date ({exc!r}); "
              "recording compile_kernel as a single span", file=sys.stderr)
        tracer.call("compile_kernel", program.compile, name + "_whole", backend)
        return 0, 0


def _build_by_layer(tracer: Tracer, program, name: str, backend: str) -> Tuple[int, int]:
    """A cold ``compile_kernel`` as ``KernelBuilder.build`` runs it:
    prepare → lower → destination + compile_stream → optimize →
    lint_bounds → emit → backend build → payload store.  Returns the
    **P** statement count before and after ``optimize``.

    The destination is assembled with the two helpers ``build`` itself
    uses (``_workspace_needed`` / ``_build_dest``); they have no public
    spelling, and rebuilding the destination by hand here would measure
    the harness's copy instead of the library's code.
    """
    from repro.compiler import codegen_c, codegen_py
    from repro.compiler.cache import kernel_cache
    from repro.compiler.compile_fn import compile_stream
    from repro.compiler.analysis.intervals import lint_bounds
    from repro.compiler.ir import NameGen, PSeq
    from repro.compiler.kernel import KernelBuilder, _build_dest, _workspace_needed
    from repro.compiler.lower import lower
    from repro.compiler.opt import optimize

    builder = KernelBuilder(program.ctx, program.semiring, backend=backend,
                            search=program.search)
    specs, dims, key = tracer.call(
        "kernel.prepare", builder.prepare, program.expr, program.tensors,
        program.output, name)
    ng = NameGen()
    stream = tracer.call(
        "lower", lower, program.expr, program.ctx, specs, builder.ops, ng,
        search=builder.search, attr_dims=dims, locate=builder.locate)

    def destination_and_loops():
        workspace = _workspace_needed(stream, program.output)
        dest, out_params, size_stores = _build_dest(
            program.output, builder.ops, ng, workspace)
        body = PSeq(dest.setup(), compile_stream(dest, stream, ng),
                    dest.finalize(), size_stores)
        return dest, out_params, body

    dest, out_params, body = tracer.call(
        "dest.compile_stream", destination_and_loops)
    params = []
    for var in sorted(specs):
        params.extend(specs[var].params())
    params.extend(out_params)
    nodes_in = count_statements(body)
    body = tracer.call("opt", optimize, body, ng, builder.opt_level,
                       verify=builder.verify, params=params)
    nodes_out = count_statements(body)
    tracer.call("intervals.lint", lint_bounds, body, dest.contracts(),
                params=[p.name for p in params],
                decls=[v.name for v in ng.allocated])
    if backend == "c":
        source = tracer.call("codegen_c.emit", codegen_c.emit_kernel_source,
                             name, params, ng.allocated, body)
        tracer.call("codegen_c.gcc", codegen_c.CKernel, source, name, params)
    else:
        source = tracer.call(
            "codegen_py.emit", codegen_py.PyKernel, name, params, ng.allocated,
            body, vectorize=builder.vectorize, checked=bool(builder.sanitize),
        ).source
    # the write side of the cache: the disk-tier payload build() stores
    tracer.call("cache.store", kernel_cache.store_payload, key, {
        "backend": backend, "requested_backend": backend, "name": name,
        "params": [[p.name, p.kind, p.ctype] for p in params],
        "source": source, "ws_dim": None,
    })
    return nodes_in, nodes_out


def standalone_build_layers(tracer: Tracer, program, name: str, backend: str) -> None:
    """The two pieces of ``prepare`` that have their own layer metric,
    called on their own (outside any op span)."""
    from repro.compiler.analysis.streamprops import verify_expr
    from repro.compiler.cache import kernel_cache_key
    from repro.compiler.kernel import KernelBuilder

    builder = KernelBuilder(program.ctx, program.semiring, backend=backend,
                            search=program.search, stream_verify=False)
    specs, dims, _key = builder.prepare(
        program.expr, program.tensors, program.output, name)
    tracer.call(
        "cache.key", kernel_cache_key, program.expr, specs, program.output,
        semiring=builder.ops.semiring, backend=builder.backend,
        search=builder.search, locate=builder.locate,
        opt_level=builder.opt_level, vectorize=builder.vectorize,
        name=name, attr_dims=dims, sanitize=builder.sanitize)
    tracer.call(
        "streamprops.verify", verify_expr, program.expr, program.ctx,
        specs=specs, semiring=builder.ops.semiring, dims=dims, kernel=name)
