"""Context weakening on effhol derivations.

``weaken_kind``/``weaken_type`` insert a fresh context entry at a list
position of the root conclusion's contexts (0 = outermost) and
``add_hypotheses`` adds hypotheses; each rebuilds every node of a checked
derivation.  They are used to replay the soundness and instance-law
derivations.  The checker never calls them and their output is always
re-checked, so they stay outside the trusted base.
"""

from __future__ import annotations

from dataclasses import replace

from .._astnode import shift
from .syntax import EXPR, PROG, TYPE, EffContexts, EffSpec, EffType, Kind
from .theory import EffDerivation, EffSequent


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
    """One insertion into the context of one namespace, applied node by node.

    ``ns`` is the namespace whose context grows (``TYPE``: kinds, ``PROG``:
    types, ``EXPR``: indices); ``pos`` is the root-context list position
    at which ``entry`` (expressed in the root context) is inserted.
    """

    _CTX = {TYPE: "kinds", PROG: "types", EXPR: "indices"}

    def __init__(self, ns, pos: int, entry, root: EffSequent):
        self.ns = ns
        self.pos = pos
        self.entry = entry
        self.root = root

    def term(self, seq: EffSequent, x, hole: bool = False):
        # The hole variable of an anti-reduction occupies program index 0.
        cutoff = len(getattr(seq.ctxs, self._CTX[self.ns])) - self.pos
        return shift(x, self.ns, 1, cutoff + (hole and self.ns is PROG))

    def __call__(self, seq: EffSequent) -> EffSequent:
        c = seq.ctxs
        ctx = {
            "kinds": list(c.kinds),
            "indices": [self.term(seq, s) for s in c.indices],
            "types": [self.term(seq, t) for t in c.types],
        }
        entry = self.entry
        if self.ns is not TYPE:
            entry = shift(entry, TYPE, len(c.kinds) - len(self.root.ctxs.kinds))
        ctx[self._CTX[self.ns]].insert(self.pos, entry)
        return EffSequent(
            EffContexts(tuple(ctx["kinds"]), tuple(ctx["indices"]), tuple(ctx["types"])),
            tuple(self.term(seq, h) for h in seq.hyps),
            self.term(seq, seq.goal),
        )


def weaken_kind(d: EffDerivation, pos: int, kind: Kind) -> EffDerivation:
    return _map_node(d, _Weaken(TYPE, pos, kind, d.conclusion))


def weaken_type(d: EffDerivation, pos: int, ty: EffType) -> EffDerivation:
    return _map_node(d, _Weaken(PROG, pos, ty, d.conclusion))


class _AddHyps:
    """Add hypotheses (expressed in the root context) at every node."""

    def __init__(self, hyps: tuple[EffSpec, ...], root: EffSequent):
        self.hyps = hyps
        self.root = root

    def _shift(self, seq: EffSequent, h: EffSpec) -> EffSpec:
        c, r = seq.ctxs, self.root.ctxs
        h = shift(h, TYPE, len(c.kinds) - len(r.kinds))
        h = shift(h, PROG, len(c.types) - len(r.types))
        return shift(h, EXPR, len(c.indices) - len(r.indices))

    def term(self, seq, x, hole=False):
        return x

    def __call__(self, seq: EffSequent) -> EffSequent:
        extra = tuple(self._shift(seq, h) for h in self.hyps)
        return EffSequent(seq.ctxs, seq.hyps + extra, seq.goal)


def add_hypotheses(d: EffDerivation, hyps: tuple[EffSpec, ...]) -> EffDerivation:
    return _map_node(d, _AddHyps(hyps, d.conclusion))
