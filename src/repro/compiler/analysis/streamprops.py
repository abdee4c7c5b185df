"""Static stream-property inference (the paper's §6 lemmas as rules).

The Lean mechanization proves that every stream combinator *preserves*
the properties evaluation soundness depends on: lawfulness (§6.1),
monotonicity and strict monotonicity (§6.2, required for ``mul``), and
— via Theorem 6.1 — that contraction is a ⊕-reduction.  This module
turns those per-combinator preservation lemmas into *transfer rules*
over two syntaxes:

* ℒ expressions (:mod:`repro.lang.ast`), the compiler's front door —
  :func:`infer_expr` / :func:`verify_expr`, wired into
  :meth:`~repro.compiler.build.KernelBuilder.prepare` behind
  ``REPRO_STREAM_VERIFY`` (default on);
* runtime stream graphs (:mod:`repro.streams.combinators` over the
  sources of :mod:`repro.streams.sources`) — :func:`infer_stream` /
  :func:`verify_stream`, used by the verification suite and available
  to hand-written pipelines.

Each node gets a :class:`PropertySignature`; where a rule's side
condition fails, a :class:`Blame` record names the exact node.  Two
side conditions are not absolute but *semiring-law obligations*
(:class:`Obligation`): a contraction over a monotone-but-not-strict
level needs idempotent ⊕ (duplicate indices fold), and a sharded
contracted merge needs commutative ⊕ (partials complete out of range
order).  Obligations are discharged against the kernel's semiring by
:func:`resolve`; unmet ones become findings.

The transfer rules (sources are axioms — tensor levels are strictly
increasing by construction, function levels strictly increasing but
unbounded when no ``dims`` bound them)::

    node        lawful                monotone    strict      unbounded
    ----------- --------------------- ----------- ----------- ------------
    x · y       both ∧ both strict    both        both        ∩ (support)
    x + y       both ∧ both monotone  both        both        ∪
    Σ_a e       e lawful ∧ monotone   e           e           e − {a}
                [a unbounded → blame; e non-strict → idempotent-⊕ obligation]
    ⇑_a e       e                     e           e           e ∪ {a}?
                [a added unless a finite domain or dim bounds it]
    name_ρ e    e                     e           e           ρ(e)

:func:`certify_split` derives the shard-split legality certificate the
parallel planner consumes from the same source axioms: a split on ``a``
is mergeable exactly when ``a`` is a *strictly monotone outermost*
level (or absent) in every operand, and the merge kind follows from the
output — concatenation (``free``, exact in any semiring) when ``a`` is
the outermost output level, elementwise ⊕ (``contracted``, requiring
commutative ⊕) when ``a`` is contracted away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.compiler.formats import FunctionInput, TensorInput
from repro.errors import StreamPropertyError
from repro.lang.ast import Add, Expand, Expr, Lit, Mul, Rename, Sum, Var
from repro.lang.typing import TypeContext, elaborate
from repro.semirings.base import Semiring
from repro.streams.base import Stream
from repro.streams.combinators import (
    AddStream,
    ContractStream,
    MapStream,
    MulStream,
    RenameStream,
    SingletonContract,
)
from repro.streams.sources import (
    DenseStream,
    EmptyStream,
    FunctionStream,
    SingletonStream,
    SparseStream,
)

InputSpec = Union[TensorInput, FunctionInput]

#: the semiring laws an :class:`Obligation` may name
KNOWN_LAWS = ("idempotent-add", "commutative-add")


# ----------------------------------------------------------------------
# the signature lattice
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Blame:
    """One broken property, pinned to the node that broke it."""

    #: short name of the offending AST node / combinator (``Σ_i``,
    #: ``MulStream``, ``ReversedStream``, ...)
    node: str
    #: path from the root to the node (``expr/Σ_i/·/left``)
    path: str
    #: the transfer rule (preservation lemma) whose side condition failed
    rule: str
    #: the property that is lost (``lawful``/``monotone``/``terminating``)
    prop: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {
            "node": self.node,
            "path": self.path,
            "rule": self.rule,
            "property": self.prop,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"[{self.rule}] {self.node} at {self.path}: {self.detail}"


@dataclass(frozen=True)
class Obligation:
    """A semiring law the pipeline's soundness depends on."""

    law: str            # one of KNOWN_LAWS
    node: str           # the node that incurred the obligation
    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.node} at {self.path} requires {self.law}: {self.reason}"


@dataclass(frozen=True)
class PropertySignature:
    """The static verdict for one (sub)pipeline.

    ``lawful``/``monotone``/``strict`` are conjunctions over every
    level of the nested stream the node denotes; ``unbounded`` is the
    set of attributes whose support is not statically finite (iterating
    or contracting such a level may diverge).  ``obligations`` are
    semiring laws still to be discharged; ``blames`` are the
    unconditional violations found beneath this node.
    """

    lawful: bool = True
    monotone: bool = True
    strict: bool = True
    unbounded: FrozenSet[str] = frozenset()
    obligations: Tuple[Obligation, ...] = ()
    blames: Tuple[Blame, ...] = ()

    @property
    def bounded(self) -> bool:
        return not self.unbounded

    def describe(self) -> str:
        flags = [
            name
            for name, on in (
                ("lawful", self.lawful),
                ("monotone", self.monotone),
                ("strictly-monotone", self.strict),
                ("bounded", self.bounded),
            )
            if on
        ]
        parts = [", ".join(flags) if flags else "(no properties certified)"]
        if self.unbounded:
            parts.append(f"unbounded={{{', '.join(sorted(self.unbounded))}}}")
        if self.obligations:
            laws = sorted({ob.law for ob in self.obligations})
            parts.append(f"requires ⊕ laws: {', '.join(laws)}")
        return "; ".join(parts)


_AXIOM = PropertySignature()


# ----------------------------------------------------------------------
# shared transfer rules (one per combinator lemma)
# ----------------------------------------------------------------------
def _mul_rule(
    ls: PropertySignature, rs: PropertySignature, node: str, path: str
) -> PropertySignature:
    """§6.2: multiplication is sound only over strictly monotone
    operands (the intersection δ may otherwise skip live entries)."""
    blames = ls.blames + rs.blames
    for side, s in (("left", ls), ("right", rs)):
        if s.monotone and not s.strict:
            blames += (
                Blame(
                    node=node,
                    path=path,
                    rule="mul-strict",
                    prop="lawful",
                    detail=(
                        f"multiplication requires strictly monotone operands "
                        f"(§6.2); the {side} operand is monotone but not "
                        "strict, so the intersection skip may drop entries"
                    ),
                ),
            )
    return PropertySignature(
        lawful=ls.lawful and rs.lawful and ls.strict and rs.strict,
        monotone=ls.monotone and rs.monotone,
        strict=ls.strict and rs.strict,
        unbounded=ls.unbounded & rs.unbounded,
        obligations=ls.obligations + rs.obligations,
        blames=blames,
    )


def _add_rule(
    ls: PropertySignature, rs: PropertySignature, node: str, path: str
) -> PropertySignature:
    """Addition (sorted min-merge) preserves every property; it needs
    monotone operands for the merge not to drop entries, and its result
    is strict whenever both operands are (each index is emitted once,
    with the values combined)."""
    return PropertySignature(
        lawful=ls.lawful and rs.lawful and ls.monotone and rs.monotone,
        monotone=ls.monotone and rs.monotone,
        strict=ls.strict and rs.strict,
        unbounded=ls.unbounded | rs.unbounded,
        obligations=ls.obligations + rs.obligations,
        blames=ls.blames + rs.blames,
    )


def _contract_rule(
    inner: PropertySignature, attr: str, node: str, path: str
) -> PropertySignature:
    """Σ_a (Theorem 6.1: contraction is a ⊕-reduction).  Requires a
    lawful, monotone body; a contraction over an unbounded level never
    terminates (fatal); over a monotone-but-not-strict level it may
    fold duplicate indices, which is sound only for idempotent ⊕."""
    blames = inner.blames
    obligations = inner.obligations
    if attr in inner.unbounded:
        blames += (
            Blame(
                node=node,
                path=path,
                rule="sum-bounded",
                prop="terminating",
                detail=(
                    f"Σ_{attr} contracts a level with statically unbounded "
                    "support; the ⊕-reduction never terminates"
                ),
            ),
        )
    if inner.lawful and inner.monotone and not inner.strict:
        obligations += (
            Obligation(
                law="idempotent-add",
                node=node,
                path=path,
                reason=(
                    f"Σ_{attr} ranges over a monotone but not strictly "
                    "monotone level, which may emit an index more than "
                    "once; folding the duplicates with ⊕ is only sound "
                    "when ⊕ is idempotent"
                ),
            ),
        )
    return PropertySignature(
        lawful=inner.lawful and inner.monotone,
        monotone=inner.monotone,
        strict=inner.strict,
        unbounded=inner.unbounded - {attr},
        obligations=obligations,
        blames=blames,
    )


def _rename_rule(
    inner: PropertySignature, mapping: Mapping[str, str]
) -> PropertySignature:
    """name_ρ relabels attributes without touching the automaton."""
    return PropertySignature(
        lawful=inner.lawful,
        monotone=inner.monotone,
        strict=inner.strict,
        unbounded=frozenset(mapping.get(a, a) for a in inner.unbounded),
        obligations=inner.obligations,
        blames=inner.blames,
    )


def _conjoin(
    level: PropertySignature, children: List[PropertySignature]
) -> PropertySignature:
    """A level plus its nested value streams: properties conjoin."""
    sig = level
    for child in children:
        sig = PropertySignature(
            lawful=sig.lawful and child.lawful,
            monotone=sig.monotone and child.monotone,
            strict=sig.strict and child.strict,
            unbounded=sig.unbounded | child.unbounded,
            obligations=sig.obligations + child.obligations,
            blames=sig.blames + child.blames,
        )
    return sig


# ----------------------------------------------------------------------
# inference over ℒ expressions
# ----------------------------------------------------------------------
def infer_expr(
    expr: Expr,
    ctx: TypeContext,
    specs: Optional[Mapping[str, InputSpec]] = None,
    dims: Optional[Mapping[str, int]] = None,
) -> PropertySignature:
    """The property signature of an ℒ expression.

    ``specs`` binds variables to their input descriptions (tensor
    levels are strictly monotone axioms; function inputs are strict but
    unbounded at every level without a ``dims`` bound).  ``dims`` bounds
    expansion levels the schema leaves open (the builder passes its
    assembled ``attr_dims``).  Broadcast sugar is elaborated first, so
    inserted ⇑ nodes are analyzed like explicit ones.
    """
    core = elaborate(expr, ctx)
    bound: Dict[str, InputSpec] = dict(specs or {})
    known_dims: Dict[str, int] = dict(dims or {})
    return _infer_expr(core, ctx, bound, known_dims, "expr")


def _infer_expr(
    expr: Expr,
    ctx: TypeContext,
    specs: Dict[str, InputSpec],
    dims: Dict[str, int],
    path: str,
) -> PropertySignature:
    if isinstance(expr, Var):
        spec = specs.get(expr.name)
        if isinstance(spec, FunctionInput):
            unbounded = frozenset(
                a for a, d in zip(spec.attrs, spec.dims) if d is None
            )
            return PropertySignature(unbounded=unbounded)
        # a data structure: every level strictly increasing by
        # construction (SparseStream/DenseStream reject anything else)
        return _AXIOM
    if isinstance(expr, Lit):
        return _AXIOM
    if isinstance(expr, Mul):
        here = f"{path}/·"
        return _mul_rule(
            _infer_expr(expr.left, ctx, specs, dims, f"{here}/left"),
            _infer_expr(expr.right, ctx, specs, dims, f"{here}/right"),
            "·",
            here,
        )
    if isinstance(expr, Add):
        here = f"{path}/+"
        return _add_rule(
            _infer_expr(expr.left, ctx, specs, dims, f"{here}/left"),
            _infer_expr(expr.right, ctx, specs, dims, f"{here}/right"),
            "+",
            here,
        )
    if isinstance(expr, Sum):
        here = f"{path}/Σ_{expr.attr}"
        inner = _infer_expr(expr.body, ctx, specs, dims, here)
        return _contract_rule(inner, expr.attr, f"Σ_{expr.attr}", here)
    if isinstance(expr, Expand):
        here = f"{path}/⇑_{expr.attr}"
        inner = _infer_expr(expr.body, ctx, specs, dims, here)
        bounded = (
            dims.get(expr.attr) is not None
            or ctx.schema.attribute(expr.attr).finite
        )
        unbounded = inner.unbounded
        if not bounded:
            unbounded = unbounded | {expr.attr}
        # an expansion level iterates its (dense) domain in order:
        # strictly monotone and lawful by construction
        return PropertySignature(
            lawful=inner.lawful,
            monotone=inner.monotone,
            strict=inner.strict,
            unbounded=unbounded,
            obligations=inner.obligations,
            blames=inner.blames,
        )
    if isinstance(expr, Rename):
        here = f"{path}/name"
        inner = _infer_expr(expr.body, ctx, specs, dims, here)
        return _rename_rule(inner, expr.mapping)
    raise TypeError(f"not a core contraction expression: {expr!r}")


# ----------------------------------------------------------------------
# inference over runtime stream graphs
# ----------------------------------------------------------------------
def infer_stream(stream: object, path: str = "stream") -> PropertySignature:
    """The property signature of a runtime stream graph.

    Combinators follow the same transfer rules as the expression pass;
    sources are axioms backed by their constructor invariants.  Class
    dispatch is by *exact* type: a subclass may override any of the
    automaton methods and silently void the constructor invariant the
    axiom rests on, so an undeclared subclass is treated as unknown.
    A hand-written :class:`~repro.streams.base.Stream` subclass may
    declare its own signature via a ``static_properties`` class
    attribute (a mapping with any of ``lawful``/``monotone``/
    ``strict``/``bounded``); an undeclared unknown class cannot be
    certified and is blamed.
    """
    if not isinstance(stream, Stream):
        return _AXIOM  # a scalar leaf
    name = type(stream).__name__
    declared = getattr(type(stream), "static_properties", None)
    if isinstance(declared, Mapping):
        return _declared_signature(stream, declared, name, path)
    if type(stream) is MulStream:
        here = f"{path}/{name}"
        return _mul_rule(
            infer_stream(stream.x, f"{here}/left"),
            infer_stream(stream.y, f"{here}/right"),
            name,
            here,
        )
    if type(stream) is AddStream:
        here = f"{path}/{name}"
        return _add_rule(
            infer_stream(stream.x, f"{here}/left"),
            infer_stream(stream.y, f"{here}/right"),
            name,
            here,
        )
    if type(stream) is ContractStream:
        here = f"{path}/{name}"
        inner = infer_stream(stream.inner, here)
        return _contract_rule(inner, str(stream.inner.attr), name, here)
    if type(stream) is SingletonContract:
        here = f"{path}/{name}"
        return _conjoin(_AXIOM, [infer_stream(stream.value(0), here)])
    if type(stream) is RenameStream:
        here = f"{path}/{name}"
        return _rename_rule(infer_stream(stream.inner, here), stream.mapping)
    if type(stream) is MapStream:
        here = f"{path}/{name}"
        inner = infer_stream(stream.inner, here)
        if len(stream.shape) <= 1:
            # scalar-valued map: the level automaton is untouched
            return inner
        return PropertySignature(
            lawful=False,
            monotone=inner.monotone,
            strict=inner.strict,
            unbounded=inner.unbounded,
            obligations=inner.obligations,
            blames=inner.blames
            + (
                Blame(
                    node=name,
                    path=here,
                    rule="map-opaque",
                    prop="lawful",
                    detail=(
                        "a nested-valued MapStream applies an opaque "
                        "function to whole substreams; the analysis cannot "
                        "certify the transformed values"
                    ),
                ),
            ),
        )
    if type(stream) in (SparseStream, DenseStream):
        # constructor invariant: indices/domain strictly increase
        children = [
            infer_stream(v, f"{path}/{name}/vals[{k}]")
            for k, v in enumerate(stream.vals)
            if isinstance(v, Stream)
        ]
        return _conjoin(_AXIOM, children)
    if type(stream) is FunctionStream:
        here = f"{path}/{name}"
        unbounded: FrozenSet[str] = frozenset()
        if stream.domain is None:
            unbounded = frozenset({str(stream.attr)})
        if len(stream.shape) > 1:
            return PropertySignature(
                lawful=False,
                unbounded=unbounded,
                blames=(
                    Blame(
                        node=name,
                        path=here,
                        rule="function-opaque",
                        prop="lawful",
                        detail=(
                            "a FunctionStream computing nested substreams is "
                            "opaque to the analysis; only scalar-valued "
                            "function levels are certified"
                        ),
                    ),
                ),
            )
        return PropertySignature(unbounded=unbounded)
    if type(stream) is SingletonStream:
        here = f"{path}/{name}"
        return _conjoin(_AXIOM, [infer_stream(stream.value(0), here)])
    if type(stream) is EmptyStream:
        return _AXIOM
    return PropertySignature(
        lawful=False,
        monotone=False,
        strict=False,
        blames=(
            Blame(
                node=name,
                path=f"{path}/{name}",
                rule="unknown-source",
                prop="lawful",
                detail=(
                    f"stream class {name!r} is not a known source or "
                    "combinator and declares no `static_properties`; the "
                    "analysis cannot certify it"
                ),
            ),
        ),
    )


def _declared_signature(
    stream: Stream,
    declared: Mapping[str, object],
    name: str,
    path: str,
) -> PropertySignature:
    here = f"{path}/{name}"
    monotone = bool(declared.get("monotone", True))
    lawful = bool(declared.get("lawful", True)) and monotone
    strict = bool(declared.get("strict", True)) and monotone
    bounded = bool(declared.get("bounded", True))
    blames: Tuple[Blame, ...] = ()
    for prop, ok in (("monotone", monotone), ("lawful", lawful)):
        if not ok:
            blames += (
                Blame(
                    node=name,
                    path=here,
                    rule="declared",
                    prop=prop,
                    detail=(
                        f"source {name} declares {prop}=False; evaluation "
                        "of such a stream is outside the guarantees of "
                        "Theorem 6.1"
                    ),
                ),
            )
            break  # one blame per source is enough
    unbounded: FrozenSet[str] = frozenset()
    if not bounded:
        unbounded = frozenset({str(stream.attr)})
    return PropertySignature(
        lawful=lawful,
        monotone=monotone,
        strict=strict,
        unbounded=unbounded,
        blames=blames,
    )


# ----------------------------------------------------------------------
# obligation resolution and the verification entry points
# ----------------------------------------------------------------------
def semiring_satisfies(semiring: Semiring, law: str) -> bool:
    """Whether ``semiring``'s ⊕ provides the named law."""
    if law == "idempotent-add":
        return bool(semiring.idempotent_add)
    if law == "commutative-add":
        return bool(getattr(semiring, "commutative_add", True))
    raise ValueError(f"unknown semiring law {law!r}; known: {KNOWN_LAWS}")


def resolve(sig: PropertySignature, semiring: Semiring) -> List[Blame]:
    """Blames plus every obligation ``semiring`` fails to discharge."""
    findings = list(sig.blames)
    for ob in sig.obligations:
        if not semiring_satisfies(semiring, ob.law):
            findings.append(
                Blame(
                    node=ob.node,
                    path=ob.path,
                    rule=f"semiring-law:{ob.law}",
                    prop="lawful",
                    detail=(
                        f"{ob.reason} — ⊕ of semiring {semiring.name!r} "
                        f"does not provide {ob.law}"
                    ),
                )
            )
    return findings


def analyze_expr(
    expr: Expr,
    ctx: TypeContext,
    specs: Optional[Mapping[str, InputSpec]] = None,
    semiring: Optional[Semiring] = None,
    dims: Optional[Mapping[str, int]] = None,
) -> Tuple[PropertySignature, List[Blame]]:
    """Infer and (when a semiring is given) resolve obligations."""
    sig = infer_expr(expr, ctx, specs, dims)
    findings = resolve(sig, semiring) if semiring is not None else list(sig.blames)
    return sig, findings


def analyze_stream(
    stream: object, semiring: Optional[Semiring] = None
) -> Tuple[PropertySignature, List[Blame]]:
    sig = infer_stream(stream)
    if semiring is None and isinstance(stream, Stream):
        semiring = stream.semiring
    findings = resolve(sig, semiring) if semiring is not None else list(sig.blames)
    return sig, findings


def _raise_findings(
    findings: List[Blame], kernel: Optional[str]
) -> None:
    first = findings[0]
    raise StreamPropertyError(
        f"stream-property verification failed with {len(findings)} "
        f"finding(s); first: {first}",
        kernel=kernel,
        findings=findings,
    )


def verify_expr(
    expr: Expr,
    ctx: TypeContext,
    specs: Optional[Mapping[str, InputSpec]] = None,
    semiring: Optional[Semiring] = None,
    dims: Optional[Mapping[str, int]] = None,
    kernel: Optional[str] = None,
) -> PropertySignature:
    """:func:`analyze_expr`, raising :class:`StreamPropertyError` on any
    finding.  Returns the (clean) signature otherwise."""
    sig, findings = analyze_expr(expr, ctx, specs, semiring, dims)
    if findings:
        _raise_findings(findings, kernel)
    return sig


def verify_stream(
    stream: object,
    semiring: Optional[Semiring] = None,
    kernel: Optional[str] = None,
) -> PropertySignature:
    """:func:`analyze_stream`, raising on any finding."""
    sig, findings = analyze_stream(stream, semiring)
    if findings:
        _raise_findings(findings, kernel)
    return sig


# ----------------------------------------------------------------------
# the planner's shard-split certificate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SplitCertificate:
    """Why a shard split is sound, as a checkable statement.

    Derived by :func:`certify_split` from the source axioms of the
    analysis: every operand either ignores ``split_attr`` or carries it
    as a strictly monotone *outermost* level (so contiguous windows of
    its range are themselves well-formed streams and partition the
    operand's support).  ``kind`` names the merge Theorem 6.1 licenses —
    ``"free"`` (the output's outermost level: concatenation, exact in
    any semiring) or ``"contracted"`` (Σ over the split attribute:
    elementwise ⊕ of partials, requiring the laws in ``requires``).

    :meth:`check` re-validates the law requirements against the
    semiring actually used at merge time; ``merge_partials`` asserts it
    before any contracted ⊕-merge.
    """

    split_attr: str
    kind: str                       # "free" | "contracted"
    #: operands row-block sliced on the split attribute (the rest pass
    #: through whole)
    outer_operands: Tuple[str, ...]
    #: semiring laws the merge relies on (⊆ KNOWN_LAWS)
    requires: Tuple[str, ...]
    #: name of the semiring the certificate was issued against
    semiring: str

    def check(self, semiring: Semiring) -> None:
        """Raise :class:`StreamPropertyError` when ``semiring`` cannot
        discharge a law this certificate's merge relies on."""
        for law in self.requires:
            if not semiring_satisfies(semiring, law):
                raise StreamPropertyError(
                    f"shard merge for split on {self.split_attr!r} "
                    f"({self.kind}) requires {law}, which semiring "
                    f"{semiring.name!r} does not provide",
                    findings=[
                        Blame(
                            node=f"merge[{self.split_attr}]",
                            path="shard-merge",
                            rule=f"semiring-law:{law}",
                            prop="lawful",
                            detail=(
                                f"the {self.kind} merge ⊕-combines shard "
                                f"partials; {law} is required but "
                                f"{semiring.name!r} does not declare it"
                            ),
                        )
                    ],
                )


def refusal_reason(kernel: Any, attr: str) -> Optional[str]:
    """Why ``attr`` is not a certifiable split for ``kernel`` (None when
    it is).  The planner quotes this in its explicit-split error."""
    any_outer = False
    for name, spec in kernel.input_specs.items():
        kind = spec.split_kind(attr)
        if kind is None:
            if isinstance(spec, FunctionInput):
                return (
                    f"function input {name!r} evaluates {attr!r} at absolute "
                    "indices; slicing would rebase them"
                )
            return (
                f"operand {name!r} carries {attr!r} at an inner level; "
                "windows of an inner level are not streams"
            )
        if kind == "outer":
            any_outer = True
    if not any_outer:
        return (
            f"no operand is partitioned by {attr!r}; every shard would "
            "recompute the whole problem"
        )
    out = kernel.output
    sr = kernel.ops.semiring
    if out is None or attr not in out.attrs:
        if not semiring_satisfies(sr, "commutative-add"):
            return (
                f"the contracted merge on {attr!r} ⊕-combines partials out "
                f"of range order, but ⊕ of {sr.name!r} is not commutative"
            )
        return None
    if out.attrs[0] == attr:
        return None
    return (
        f"{attr!r} sits at an inner level of the output; neither "
        "concatenation nor ⊕-merge reassembles it"
    )


def certify_split(kernel: Any, attr: str) -> Optional[SplitCertificate]:
    """Derive the shard-split certificate for ``attr``, or None.

    Legality comes from the analysis' source axioms: tensor levels are
    strictly monotone by construction, so an *outermost* occurrence of
    ``attr`` may be windowed; a function input mentioning ``attr``
    refuses (absolute-index rebasing); the merge kind follows from the
    output placement, and a contracted merge additionally needs the
    kernel's ⊕ to be commutative (checked here, so an uncertifiable
    split never reaches the executor)."""
    if refusal_reason(kernel, attr) is not None:
        return None
    outer = tuple(
        name
        for name, spec in kernel.input_specs.items()
        if spec.split_kind(attr) == "outer"
    )
    out = kernel.output
    sr = kernel.ops.semiring
    if out is None or attr not in out.attrs:
        kind = "contracted"
        requires: Tuple[str, ...] = ("commutative-add",)
    else:
        kind = "free"
        requires = ()
    return SplitCertificate(
        split_attr=attr,
        kind=kind,
        outer_operands=outer,
        requires=requires,
        semiring=str(sr.name),
    )


__all__ = [
    "Blame",
    "Obligation",
    "PropertySignature",
    "SplitCertificate",
    "StreamPropertyError",
    "KNOWN_LAWS",
    "analyze_expr",
    "analyze_stream",
    "certify_split",
    "infer_expr",
    "infer_stream",
    "refusal_reason",
    "resolve",
    "semiring_satisfies",
    "verify_expr",
    "verify_stream",
]
