"""Kinding, typing, indexing and well-formedness judgments.

All four judgments are syntax-directed; the conversion rule is absorbed by
returning normal forms, compared with ``==`` (identity: nodes are
hash-consed).  Context entries are kept in the current kind context:
descending under a kind binder shifts every stored type and index.

``kind_of`` and ``type_of`` look their argument up in a typing table
first: one dict per top-level call, which passes it down (as ``memo``;
``theory.check`` shares one across a whole derivation).  ``kind_of`` keys
a type ``t`` by ``(t, kctx[-a:])`` and ``type_of`` keys a program ``p`` by
``(p, kctx[-a:], tctx[-b:])``, with ``()`` for a bound of 0, where ``a``
and ``b`` are the node's loose type and program bounds.  These keys are
exact: de Bruijn indices count from the innermost entry, a judgment reads
``tctx`` only at loose program variables, and ``kctx`` only at loose type
variables (``type_of`` reads it to kind the types inside ``p``).  Only
successes are stored.  A rejection carries no path: ``theory.check``
locates it at the node its loop is on.
"""

from __future__ import annotations

from ..errors import (
    IndexMismatch,
    KindMismatch,
    SpecIllFormed,
    TypeMismatch,
    UnboundTypeVariable,
    UnboundVariable,
)
from .._astnode import shift, subst
from .conversion import normalize
from .syntax import (
    PROG,
    TYPE,
    Abs,
    After,
    App,
    Bind,
    Comp,
    Compr,
    ComprBase,
    EApp,
    EffExpr,
    EffIndex,
    EffProgram,
    EffSpec,
    EffType,
    EForall,
    EVar,
    Fun,
    IForall,
    KCon,
    Kind,
    KSTAR,
    PVar,
    Ref,
    RefBase,
    Ret,
    SForallExpr,
    SForallProg,
    SForallType,
    SImp,
    SMem,
    SMemBase,
    TAbs,
    TApp,
    TForall,
    TVar,
    TyAbs,
    TyApp,
)

KindCtx = tuple[Kind, ...]
TypeCtx = tuple[EffType, ...]
IndexCtx = tuple[EffIndex, ...]


def shift_ctx(ctx: tuple) -> tuple:
    """Re-express type or index context entries under one more kind binder."""
    return tuple(shift(x, TYPE) for x in ctx)


def _star(kctx: KindCtx, t: EffType, what: str, memo=None) -> None:
    """``t`` must have the base kind; ``what`` names it in the error."""
    k = kind_of(kctx, t, memo)
    if k != KSTAR:
        raise KindMismatch(f"{what} has kind {k!r}, expected *")


def kind_of(kctx: KindCtx, t: EffType, memo=None) -> Kind:
    if isinstance(t, TVar):
        if 0 <= t.index < len(kctx):
            return kctx[len(kctx) - 1 - t.index]
        raise UnboundTypeVariable(f"type variable {t.index} unbound")
    if memo is None:
        memo = {}
    key = (t, kctx[-a:] if (a := t._loose[TYPE.slot]) else ())
    k = memo.get(key)
    if k is None:
        k = KSTAR
        match t:
            case TApp(fn, arg):
                kf = kind_of(kctx, fn, memo)
                ka = kind_of(kctx, arg, memo)
                if not isinstance(kf, KCon):
                    raise KindMismatch(f"applied type has kind {kf!r}, not a constructor")
                if kf.inner != ka:
                    raise KindMismatch(f"constructor expects argument kind {kf.inner!r}, got {ka!r}")
            case TAbs(kind, body):
                _star(kctx + (kind,), body, "abstraction body", memo)
                k = KCon(kind)
            case Fun(dom, cod):
                _star(kctx, dom, "function component", memo)
                _star(kctx, cod, "function component", memo)
            case TForall(kind, body):
                _star(kctx + (kind,), body, "universal body", memo)
            case Comp(inner):
                _star(kctx, inner, "computation argument", memo)
            case _:
                raise KindMismatch(f"unexpected type {t!r}")
        memo[key] = k
    return k


def _type_apply(kctx: KindCtx, q: TForall | IForall, arg: EffType, memo):
    """The universal type or index ``q`` applied to ``arg``, of its binder kind."""
    ka = kind_of(kctx, arg, memo)
    if ka != q.binder_kind:
        raise KindMismatch(f"type argument has kind {ka!r}, expected {q.binder_kind!r}")
    return normalize(subst(q.body, TYPE, 0, arg))


def index_wf(kctx: KindCtx, s: EffIndex, memo=None) -> None:
    """Every constituent type of an index must have base kind."""
    match s:
        case RefBase(carrier):
            _star(kctx, carrier, "refinement carrier", memo)
        case Ref(carrier, arg):
            _star(kctx, carrier, "refinement carrier", memo)
            index_wf(kctx, arg, memo)
        case IForall(kind, body):
            index_wf(kctx + (kind,), body, memo)
        case _:
            raise IndexMismatch(f"unexpected index {s!r}")


def type_of(kctx: KindCtx, tctx: TypeCtx, p: EffProgram, memo=None) -> EffType:
    """Compute the (normalized) type of ``p``."""
    if isinstance(p, PVar):
        if 0 <= p.index < len(tctx):
            return normalize(tctx[len(tctx) - 1 - p.index])
        raise UnboundVariable(f"program variable {p.index} unbound")
    if memo is None:
        memo = {}
    a, b = p._loose[TYPE.slot], p._loose[PROG.slot]
    key = (p, kctx[-a:] if a else (), tctx[-b:] if b else ())
    ty = memo.get(key)
    if ty is None:
        match p:
            case TyAbs(kind, body):
                ty = TForall(kind, type_of(kctx + (kind,), shift_ctx(tctx), body, memo))
            case Abs(dom, body):
                _star(kctx, dom, "abstraction annotation", memo)
                ty = normalize(Fun(dom, type_of(kctx, tctx + (dom,), body, memo)))
            case TyApp(fn, arg):
                tf = type_of(kctx, tctx, fn, memo)
                if not isinstance(tf, TForall):
                    raise TypeMismatch(f"type application of non-universal type {tf!r}")
                ty = _type_apply(kctx, tf, arg, memo)
            case App(fn, arg):
                tf = type_of(kctx, tctx, fn, memo)
                if not isinstance(tf, Fun):
                    raise TypeMismatch(f"application of non-function type {tf!r}")
                ta = type_of(kctx, tctx, arg, memo)
                if ta != tf.dom:
                    raise TypeMismatch(f"argument type {ta!r} does not match domain {tf.dom!r}")
                ty = tf.cod
            case Ret(inner):
                ty = Comp(type_of(kctx, tctx, inner, memo))
            case Bind(ann, first, rest):
                _star(kctx, ann, "bind annotation", memo)
                tf = type_of(kctx, tctx, first, memo)
                want = normalize(Comp(ann))
                if tf != want:
                    raise TypeMismatch(f"bind source has type {tf!r}, expected {want!r}")
                ty = type_of(kctx, tctx + (ann,), rest, memo)
                if not isinstance(ty, Comp):
                    raise TypeMismatch(f"bind continuation has type {ty!r}, expected a computation")
            case _:
                raise TypeMismatch(f"unexpected program {p!r}")
        memo[key] = ty
    return ty


def index_of(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, e: EffExpr, memo=None) -> EffIndex:
    """Compute the (normalized) index of ``e``."""
    match e:
        case EVar(k):
            if 0 <= k < len(ictx):
                return normalize(ictx[len(ictx) - 1 - k])
            raise UnboundVariable(f"expression variable {k} unbound")
        case Compr(ty, idx, body):
            _star(kctx, ty, "comprehension carrier", memo)
            index_wf(kctx, idx, memo)
            spec_wf(kctx, ictx + (idx,), tctx + (ty,), body, memo)
            return normalize(Ref(ty, idx))
        case ComprBase(ty, body):
            _star(kctx, ty, "comprehension carrier", memo)
            spec_wf(kctx, ictx, tctx + (ty,), body, memo)
            return normalize(RefBase(ty))
        case EForall(kind, body):
            inner = index_of(kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, memo)
            return IForall(kind, inner)
        case EApp(fn, arg):
            sf = index_of(kctx, ictx, tctx, fn, memo)
            if not isinstance(sf, IForall):
                raise IndexMismatch(f"type application of non-universal index {sf!r}")
            return _type_apply(kctx, sf, arg, memo)
    raise IndexMismatch(f"unexpected expression {e!r}")


def spec_wf(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, f: EffSpec, memo=None) -> None:
    match f:
        case SMem(p, fn, arg):
            tp = type_of(kctx, tctx, p, memo)
            sa = index_of(kctx, ictx, tctx, arg, memo)
            sf = index_of(kctx, ictx, tctx, fn, memo)
            if sf != normalize(Ref(tp, sa)):
                raise SpecIllFormed(f"membership needs refining index {Ref(tp, sa)!r}, got {sf!r}")
        case SMemBase(p, fn):
            tp = type_of(kctx, tctx, p, memo)
            sf = index_of(kctx, ictx, tctx, fn, memo)
            if sf != normalize(RefBase(tp)):
                raise SpecIllFormed(f"base membership needs index {RefBase(tp)!r}, got {sf!r}")
        case SImp(a, b):
            spec_wf(kctx, ictx, tctx, a, memo)
            spec_wf(kctx, ictx, tctx, b, memo)
        case After(p, ty, body):
            tp = type_of(kctx, tctx, p, memo)
            want = normalize(Comp(ty))
            if tp != want:
                raise SpecIllFormed(f"modality source has type {tp!r}, expected {want!r}")
            spec_wf(kctx, ictx, tctx + (ty,), body, memo)
        case SForallType(kind, body):
            spec_wf(kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, memo)
        case SForallProg(ty, body):
            _star(kctx, ty, "quantifier annotation", memo)
            spec_wf(kctx, ictx, tctx + (ty,), body, memo)
        case SForallExpr(idx, body):
            index_wf(kctx, idx, memo)
            spec_wf(kctx, ictx + (idx,), tctx, body, memo)
        case _:
            raise SpecIllFormed(f"unexpected specification {f!r}")
