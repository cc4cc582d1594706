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
successes are stored, so a rejection is recomputed with its own path.
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


def _star(kctx: KindCtx, t: EffType, what: str, path, memo=None) -> None:
    """``t`` must have the base kind; ``what`` names it in the error."""
    k = kind_of(kctx, t, path, memo)
    if k != KSTAR:
        raise KindMismatch(f"{what} has kind {k!r}, expected *", path)


def kind_of(kctx: KindCtx, t: EffType, path=None, memo=None) -> Kind:
    if isinstance(t, TVar):
        if 0 <= t.index < len(kctx):
            return kctx[len(kctx) - 1 - t.index]
        raise UnboundTypeVariable(f"type variable {t.index} unbound", path)
    if memo is None:
        memo = {}
    key = (t, kctx[-a:] if (a := t._loose[TYPE.slot]) else ())
    k = memo.get(key)
    if k is None:
        k = KSTAR
        match t:
            case TApp(fn, arg):
                kf = kind_of(kctx, fn, path, memo)
                ka = kind_of(kctx, arg, path, memo)
                if not isinstance(kf, KCon):
                    raise KindMismatch(f"applied type has kind {kf!r}, not a constructor", path)
                if kf.inner != ka:
                    raise KindMismatch(
                        f"constructor expects argument kind {kf.inner!r}, got {ka!r}", path
                    )
            case TAbs(kind, body):
                _star(kctx + (kind,), body, "abstraction body", path, memo)
                k = KCon(kind)
            case Fun(dom, cod):
                _star(kctx, dom, "function component", path, memo)
                _star(kctx, cod, "function component", path, memo)
            case TForall(kind, body):
                _star(kctx + (kind,), body, "universal body", path, memo)
            case Comp(inner):
                _star(kctx, inner, "computation argument", path, memo)
            case _:
                raise TypeError(f"unexpected type {t!r}")
        memo[key] = k
    return k


def _type_apply(kctx: KindCtx, q: TForall | IForall, arg: EffType, path, memo):
    """The universal type or index ``q`` applied to ``arg``, of its binder kind."""
    ka = kind_of(kctx, arg, path, memo)
    if ka != q.binder_kind:
        raise KindMismatch(f"type argument has kind {ka!r}, expected {q.binder_kind!r}", path)
    return normalize(subst(q.body, TYPE, 0, arg))


def index_wf(kctx: KindCtx, s: EffIndex, path=None, memo=None) -> None:
    """Every constituent type of an index must have base kind."""
    match s:
        case RefBase(carrier):
            _star(kctx, carrier, "refinement carrier", path, memo)
        case Ref(carrier, arg):
            _star(kctx, carrier, "refinement carrier", path, memo)
            index_wf(kctx, arg, path, memo)
        case IForall(kind, body):
            index_wf(kctx + (kind,), body, path, memo)
        case _:
            raise TypeError(f"unexpected index {s!r}")


def type_of(kctx: KindCtx, tctx: TypeCtx, p: EffProgram, path=None, memo=None) -> EffType:
    """Compute the (normalized) type of ``p``."""
    if isinstance(p, PVar):
        if 0 <= p.index < len(tctx):
            return normalize(tctx[len(tctx) - 1 - p.index])
        raise UnboundVariable(f"program variable {p.index} unbound", path)
    if memo is None:
        memo = {}
    a, b = p._loose[TYPE.slot], p._loose[PROG.slot]
    key = (p, kctx[-a:] if a else (), tctx[-b:] if b else ())
    ty = memo.get(key)
    if ty is None:
        match p:
            case TyAbs(kind, body):
                ty = TForall(kind, type_of(kctx + (kind,), shift_ctx(tctx), body, path, memo))
            case Abs(dom, body):
                _star(kctx, dom, "abstraction annotation", path, memo)
                ty = normalize(Fun(dom, type_of(kctx, tctx + (dom,), body, path, memo)))
            case TyApp(fn, arg):
                tf = type_of(kctx, tctx, fn, path, memo)
                if not isinstance(tf, TForall):
                    raise TypeMismatch(f"type application of non-universal type {tf!r}", path)
                ty = _type_apply(kctx, tf, arg, path, memo)
            case App(fn, arg):
                tf = type_of(kctx, tctx, fn, path, memo)
                if not isinstance(tf, Fun):
                    raise TypeMismatch(f"application of non-function type {tf!r}", path)
                ta = type_of(kctx, tctx, arg, path, memo)
                if ta != tf.dom:
                    raise TypeMismatch(f"argument type {ta!r} does not match domain {tf.dom!r}", path)
                ty = tf.cod
            case Ret(inner):
                ty = Comp(type_of(kctx, tctx, inner, path, memo))
            case Bind(ann, first, rest):
                _star(kctx, ann, "bind annotation", path, memo)
                tf = type_of(kctx, tctx, first, path, memo)
                want = normalize(Comp(ann))
                if tf != want:
                    raise TypeMismatch(f"bind source has type {tf!r}, expected {want!r}", path)
                ty = type_of(kctx, tctx + (ann,), rest, path, memo)
                if not isinstance(ty, Comp):
                    raise TypeMismatch(f"bind continuation has type {ty!r}, expected a computation", path)
            case _:
                raise TypeError(f"unexpected program {p!r}")
        memo[key] = ty
    return ty


def index_of(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, e: EffExpr, path=None, memo=None) -> EffIndex:
    """Compute the (normalized) index of ``e``."""
    match e:
        case EVar(k):
            if 0 <= k < len(ictx):
                return normalize(ictx[len(ictx) - 1 - k])
            raise UnboundVariable(f"expression variable {k} unbound", path)
        case Compr(ty, idx, body):
            _star(kctx, ty, "comprehension carrier", path, memo)
            index_wf(kctx, idx, path, memo)
            spec_wf(kctx, ictx + (idx,), tctx + (ty,), body, path, memo)
            return normalize(Ref(ty, idx))
        case ComprBase(ty, body):
            _star(kctx, ty, "comprehension carrier", path, memo)
            spec_wf(kctx, ictx, tctx + (ty,), body, path, memo)
            return normalize(RefBase(ty))
        case EForall(kind, body):
            inner = index_of(kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, path, memo)
            return IForall(kind, inner)
        case EApp(fn, arg):
            sf = index_of(kctx, ictx, tctx, fn, path, memo)
            if not isinstance(sf, IForall):
                raise IndexMismatch(f"type application of non-universal index {sf!r}", path)
            return _type_apply(kctx, sf, arg, path, memo)
    raise TypeError(f"unexpected expression {e!r}")


def spec_wf(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, f: EffSpec, path=None, memo=None) -> None:
    match f:
        case SMem(p, fn, arg):
            tp = type_of(kctx, tctx, p, path, memo)
            sa = index_of(kctx, ictx, tctx, arg, path, memo)
            sf = index_of(kctx, ictx, tctx, fn, path, memo)
            if sf != normalize(Ref(tp, sa)):
                raise SpecIllFormed(
                    f"membership needs refining index {Ref(tp, sa)!r}, got {sf!r}", path
                )
        case SMemBase(p, fn):
            tp = type_of(kctx, tctx, p, path, memo)
            sf = index_of(kctx, ictx, tctx, fn, path, memo)
            if sf != normalize(RefBase(tp)):
                raise SpecIllFormed(
                    f"base membership needs index {RefBase(tp)!r}, got {sf!r}", path
                )
        case SImp(a, b):
            spec_wf(kctx, ictx, tctx, a, path, memo)
            spec_wf(kctx, ictx, tctx, b, path, memo)
        case After(p, ty, body):
            tp = type_of(kctx, tctx, p, path, memo)
            want = normalize(Comp(ty))
            if tp != want:
                raise SpecIllFormed(
                    f"modality source has type {tp!r}, expected {want!r}", path
                )
            spec_wf(kctx, ictx, tctx + (ty,), body, path, memo)
        case SForallType(kind, body):
            spec_wf(kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, path, memo)
        case SForallProg(ty, body):
            _star(kctx, ty, "quantifier annotation", path, memo)
            spec_wf(kctx, ictx, tctx + (ty,), body, path, memo)
        case SForallExpr(idx, body):
            index_wf(kctx, idx, path, memo)
            spec_wf(kctx, ictx + (idx,), tctx, body, path, memo)
        case _:
            raise TypeError(f"unexpected specification {f!r}")
