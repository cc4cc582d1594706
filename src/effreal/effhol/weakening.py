"""Context weakening on effhol derivations.

``weaken_kind``/``weaken_type`` insert a fresh context entry at a list
position of the root conclusion's contexts (0 = outermost), and
``weaken_type`` can add hypotheses; each rebuilds every node of a checked
derivation once.  They are used to replay the soundness derivations (the
translation's ImpE); the instance templates cut their premises in instead.
The checker never calls them and their output is always re-checked, so
they stay outside the trusted base.
"""

from __future__ import annotations

from dataclasses import replace

from .._astnode import shift
from .syntax import EXPR, PROG, TYPE, EffSpec, EffType, Kind
from .theory import CONTEXT, EffDerivation, EffSequent, extend


def _map_node(d: EffDerivation, fn) -> EffDerivation:
    def term(x, hole=False):
        return None if x is None else fn.term(d.conclusion, x, hole)

    return replace(
        d,
        conclusion=fn(d.conclusion),
        premises=tuple(_map_node(p, fn) for p in d.premises),
        witness_prog=term(d.witness_prog),
        witness_expr=term(d.witness_expr),
        witness_type=term(d.witness_type),
        hole_spec=term(d.hole_spec, hole=True),
        hole_type=term(d.hole_type),
        prog_before=term(d.prog_before),
        prog_after=term(d.prog_after),
    )


class _Weaken:
    """One insertion into the context of one namespace, and added
    hypotheses, applied node by node.

    ``ns`` is the namespace whose context grows (``TYPE``: kinds, ``PROG``:
    types, ``EXPR``: indices); ``pos`` is the root-context list position at
    which ``entry`` (expressed in the root context) is inserted.  ``hyps``
    are expressed in the root context after the insertion.
    """

    def __init__(self, root: EffSequent, hyps: tuple[EffSpec, ...], ns, pos: int, entry):
        self.root = root
        self.hyps = hyps
        self.ns = ns
        self.pos = pos
        self.entry = entry

    def term(self, seq: EffSequent, x, hole: bool = False):
        # The hole variable of an anti-reduction occupies program index 0.
        cutoff = len(getattr(seq.ctxs, CONTEXT[self.ns])) - self.pos
        return shift(x, self.ns, 1, cutoff + (hole and self.ns is PROG))

    def _added(self, seq: EffSequent, h: EffSpec) -> EffSpec:
        c, r = seq.ctxs, self.root.ctxs
        h = shift(h, TYPE, len(c.kinds) - len(r.kinds))
        h = shift(h, PROG, len(c.types) - len(r.types))
        return shift(h, EXPR, len(c.indices) - len(r.indices))

    def __call__(self, seq: EffSequent) -> EffSequent:
        entry = self.entry
        if self.ns is not TYPE:
            entry = shift(entry, TYPE, len(seq.ctxs.kinds) - len(self.root.ctxs.kinds))
        ctxs, hyps = extend(seq.ctxs, seq.hyps, self.ns, entry, self.pos)
        extra = tuple(self._added(seq, h) for h in self.hyps)
        return EffSequent(ctxs, hyps + extra, self.term(seq, seq.goal))


def weaken_kind(d: EffDerivation, pos: int, kind: Kind) -> EffDerivation:
    return _map_node(d, _Weaken(d.conclusion, (), TYPE, pos, kind))


def weaken_type(
    d: EffDerivation, pos: int, ty: EffType, hyps: tuple[EffSpec, ...] = ()
) -> EffDerivation:
    return _map_node(d, _Weaken(d.conclusion, hyps, PROG, pos, ty))
