"""Conversion, decided by full normalization.

The two conversion axioms — type-level beta and expression-level type
application — form a terminating, confluent rewrite (the kind layer is
simple), so convertibility of any two objects is equality of their normal
forms, which for hash-consed nodes is identity.  ``normalize`` works on
every category: only the two axioms are written out, every other node is
rebuilt from its normalized children by the generic traversal, so the
types embedded in programs, indices, expressions and specifications get
normalized too.  Program-level beta is deliberately *not* part of
conversion (that is the anti-reduction rule's job).

A node keeps its normal form once computed: another node, or ``_NORMAL``
when it is its own.  The node alone is an exact key, because conversion
reads no context.
"""

from __future__ import annotations

from .._astnode import map_children, subst
from .syntax import TYPE, EApp, EForall, TAbs, TApp

_NORMAL = object()


def normalize(x, _under=None):
    # hands itself to ``map_children`` (``_under`` unused): two frames a level
    nf = x._nf
    if nf is not None:
        return x if nf is _NORMAL else nf
    match x:
        case TApp(fn, arg) | EApp(fn, arg):
            fn, arg = normalize(fn), normalize(arg)
            redex = isinstance(fn, (TAbs, EForall))  # TAbs under TApp, EForall under EApp
            nf = normalize(subst(fn.body, TYPE, 0, arg)) if redex else type(x)(fn, arg)
        case _:
            nf = map_children(x, normalize)
    object.__setattr__(x, "_nf", _NORMAL if nf is x else nf)
    object.__setattr__(nf, "_nf", _NORMAL)
    return nf


# The name the type-level callers and the benchmark harness use.
normalize_type = normalize
