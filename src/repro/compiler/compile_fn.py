"""The core code generation function (Figure 15/16).

``compile_stream(dest, s)`` emits a while loop that traverses the
syntactic stream ``s`` and accumulates its evaluation into ``dest``,
recursing into nested streams for inner loops.  The structure follows
the equational derivation of Figure 16:

    init;
    while (valid) {
        bind;                      // the level's per-iteration temporaries
        i = index;                 // saved so skips see a stable value
        if (ready) { push; compile(sub-dest, value); δ; }
        else      { skip0(i); }
    }

δ, the step past a ready state, is the paper's ``skip(q, (i, 1))``,
spelled as the stream's ``advance1`` — increments of the operands that
produced ``i``, which every combinator derives from its operands'; a
ready state is the only place the strict skip is taken, so the loop
never scans for it.  At the innermost level, whose value is a scalar,
``push; compile; close`` is the destination's ``append(i, value)``,
which a compressed leaf level specialises to one guarded pair of stores.

``bind`` is the stream's binding step (see
:class:`~repro.compiler.sstream.SStream`): the composite combinators
decide once per iteration which operands are live and which sit at the
merge point, and ``index``, ``ready``, the value's guards and the skips
name those decisions instead of each re-deriving them from the
operands' ``valid``/``index`` — which is what keeps the emitted code
linear in the expression.  It is empty for primitive levels, and the
loop is then exactly Figure 16's.  ``valid`` is the one component
evaluated outside an iteration, so it never reads a bound temporary of
its own level.  A level that is ready whenever it is valid (every
primitive level, and sums of them) gets no ready test and no
``skip0`` arm.

Contracted (dummy) levels have no index and no push; their skips close
over the inner index themselves (Section 5.1.2).
"""

from __future__ import annotations

from repro.compiler.dest import Dest
from repro.compiler.ir import NameGen, P, PAssign, PIf, PSeq, PSkip, PWhile
from repro.compiler.sstream import SStream, always_ready, is_sstream
from repro.errors import CompileError
from repro.streams.base import STAR


def compile_stream(dest: Dest, s, ng: NameGen) -> P:
    """Emit code accumulating ⟦s⟧ into ``dest`` (the paper's Hoare
    triple {out ↦ v} compile out q {out ↦ v + ⟦q⟧})."""
    if not is_sstream(s):
        # base case: a scalar expression
        return dest.store(s)
    if not isinstance(s, SStream):
        raise CompileError(
            f"cannot compile non-stream value {s!r} (is_sstream lied?)"
        )
    if s.attr is STAR:
        i = None
        save = PSkip()
        emit = compile_stream(dest, s.value, ng)
    else:
        if s.index is None:
            raise CompileError(
                f"stream level {s.attr!r} has no index expression; every "
                "non-contracted level must produce one"
            )
        i = ng.fresh(f"ix_{s.attr}")
        save = PAssign(i, s.index)
        if is_sstream(s.value):
            pre, sub, post = dest.push(i)
            emit = PSeq(pre, compile_stream(sub, s.value, ng), post)
        else:
            emit = dest.append(i, s.value)
    body = PSeq(emit, s.advance1)
    if not always_ready(s):  # else ready whenever valid: no branch needed
        body = PIf(s.ready, body, s.skip0(i))
    return PSeq(s.init, PWhile(s.valid, PSeq(s.bind, save, body)))
