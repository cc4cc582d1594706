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
when it is its own.
"""

from __future__ import annotations

from .._astnode import map_children, subst
from .syntax import TYPE, EApp, EForall, TAbs, TApp

_NORMAL = object()


def normalize(x):
    nf = x._nf
    if nf is None:
        nf = _normalize(x)
        x.__dict__["_nf"] = _NORMAL if nf is x else nf
        nf.__dict__["_nf"] = _NORMAL
        return nf
    return x if nf is _NORMAL else nf


def _normalize(x):
    match x:
        case TApp(fn, arg):
            fn = normalize(fn)
            arg = normalize(arg)
            if isinstance(fn, TAbs):
                return normalize(subst(fn.body, TYPE, 0, arg))
            return TApp(fn, arg)
        case EApp(fn, arg):
            fn = normalize(fn)
            arg = normalize(arg)
            if isinstance(fn, EForall):
                return normalize(subst(fn.body, TYPE, 0, arg))
            return EApp(fn, arg)
    return map_children(x, _normalize_child)


def _normalize_child(child, _under):
    return normalize(child)


# The name the type-level callers and the benchmark harness use.
normalize_type = normalize


def convertible(a, b) -> bool:
    return normalize(a) is normalize(b)
