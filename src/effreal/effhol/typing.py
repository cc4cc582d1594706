"""Kinding, typing, indexing and well-formedness judgments.

All four judgments are syntax-directed; the conversion rule is absorbed by
returning normal forms, compared with ``==`` (identity: nodes are
hash-consed).  Context entries are kept in the current kind context:
descending under a kind binder shifts every stored type and index.
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


def _star(kctx: KindCtx, t: EffType, what: str, path) -> None:
    """``t`` must have the base kind; ``what`` names it in the error."""
    k = kind_of(kctx, t, path)
    if k != KSTAR:
        raise KindMismatch(f"{what} has kind {k!r}, expected *", path)


def kind_of(kctx: KindCtx, t: EffType, path=None) -> Kind:
    match t:
        case TVar(k):
            if 0 <= k < len(kctx):
                return kctx[len(kctx) - 1 - k]
            raise UnboundTypeVariable(f"type variable {k} unbound", path)
        case TApp(fn, arg):
            kf = kind_of(kctx, fn, path)
            ka = kind_of(kctx, arg, path)
            if not isinstance(kf, KCon):
                raise KindMismatch(f"applied type has kind {kf!r}, not a constructor", path)
            if kf.inner != ka:
                raise KindMismatch(
                    f"constructor expects argument kind {kf.inner!r}, got {ka!r}", path
                )
            return KSTAR
        case TAbs(kind, body):
            _star(kctx + (kind,), body, "abstraction body", path)
            return KCon(kind)
        case Fun(dom, cod):
            _star(kctx, dom, "function component", path)
            _star(kctx, cod, "function component", path)
            return KSTAR
        case TForall(kind, body):
            _star(kctx + (kind,), body, "universal body", path)
            return KSTAR
        case Comp(inner):
            _star(kctx, inner, "computation argument", path)
            return KSTAR
    raise TypeError(f"unexpected type {t!r}")


def index_wf(kctx: KindCtx, s: EffIndex, path=None) -> None:
    """Every constituent type of an index must have base kind."""
    match s:
        case RefBase(carrier):
            _star(kctx, carrier, "refinement carrier", path)
        case Ref(carrier, arg):
            _star(kctx, carrier, "refinement carrier", path)
            index_wf(kctx, arg, path)
        case IForall(kind, body):
            index_wf(kctx + (kind,), body, path)
        case _:
            raise TypeError(f"unexpected index {s!r}")


def type_of(kctx: KindCtx, tctx: TypeCtx, p: EffProgram, path=None) -> EffType:
    """Compute the (normalized) type of ``p``."""
    match p:
        case PVar(k):
            if 0 <= k < len(tctx):
                return normalize(tctx[len(tctx) - 1 - k])
            raise UnboundVariable(f"program variable {k} unbound", path)
        case TyAbs(kind, body):
            inner = type_of(kctx + (kind,), shift_ctx(tctx), body, path)
            return TForall(kind, inner)
        case Abs(ty, body):
            _star(kctx, ty, "abstraction annotation", path)
            cod = type_of(kctx, tctx + (ty,), body, path)
            return normalize(Fun(ty, cod))
        case TyApp(fn, arg):
            tf = type_of(kctx, tctx, fn, path)
            if not isinstance(tf, TForall):
                raise TypeMismatch(f"type application of non-universal type {tf!r}", path)
            ka = kind_of(kctx, arg, path)
            if ka != tf.binder_kind:
                raise KindMismatch(
                    f"type argument has kind {ka!r}, expected {tf.binder_kind!r}", path
                )
            return normalize(subst(tf.body, TYPE, 0, arg))
        case App(fn, arg):
            tf = type_of(kctx, tctx, fn, path)
            if not isinstance(tf, Fun):
                raise TypeMismatch(f"application of non-function type {tf!r}", path)
            ta = type_of(kctx, tctx, arg, path)
            if ta != tf.dom:
                raise TypeMismatch(f"argument type {ta!r} does not match domain {tf.dom!r}", path)
            return tf.cod
        case Ret(inner):
            ti = type_of(kctx, tctx, inner, path)
            return Comp(ti)
        case Bind(ty, first, rest):
            _star(kctx, ty, "bind annotation", path)
            tf = type_of(kctx, tctx, first, path)
            want = normalize(Comp(ty))
            if tf != want:
                raise TypeMismatch(f"bind source has type {tf!r}, expected {want!r}", path)
            tr = type_of(kctx, tctx + (ty,), rest, path)
            if not isinstance(tr, Comp):
                raise TypeMismatch(f"bind continuation has type {tr!r}, expected a computation", path)
            return tr
    raise TypeError(f"unexpected program {p!r}")


def index_of(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, e: EffExpr, path=None) -> EffIndex:
    """Compute the (normalized) index of ``e``."""
    match e:
        case EVar(k):
            if 0 <= k < len(ictx):
                return normalize(ictx[len(ictx) - 1 - k])
            raise UnboundVariable(f"expression variable {k} unbound", path)
        case Compr(ty, idx, body):
            _star(kctx, ty, "comprehension carrier", path)
            index_wf(kctx, idx, path)
            spec_wf(kctx, ictx + (idx,), tctx + (ty,), body, path)
            return normalize(Ref(ty, idx))
        case ComprBase(ty, body):
            _star(kctx, ty, "comprehension carrier", path)
            spec_wf(kctx, ictx, tctx + (ty,), body, path)
            return normalize(RefBase(ty))
        case EForall(kind, body):
            inner = index_of(
                kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, path
            )
            return IForall(kind, inner)
        case EApp(fn, arg):
            sf = index_of(kctx, ictx, tctx, fn, path)
            if not isinstance(sf, IForall):
                raise IndexMismatch(f"type application of non-universal index {sf!r}", path)
            ka = kind_of(kctx, arg, path)
            if ka != sf.binder_kind:
                raise KindMismatch(
                    f"type argument has kind {ka!r}, expected {sf.binder_kind!r}", path
                )
            return normalize(subst(sf.body, TYPE, 0, arg))
    raise TypeError(f"unexpected expression {e!r}")


def spec_wf(kctx: KindCtx, ictx: IndexCtx, tctx: TypeCtx, f: EffSpec, path=None) -> None:
    match f:
        case SMem(p, fn, arg):
            tp = type_of(kctx, tctx, p, path)
            sa = index_of(kctx, ictx, tctx, arg, path)
            sf = index_of(kctx, ictx, tctx, fn, path)
            if sf != normalize(Ref(tp, sa)):
                raise SpecIllFormed(
                    f"membership needs refining index {Ref(tp, sa)!r}, got {sf!r}", path
                )
        case SMemBase(p, fn):
            tp = type_of(kctx, tctx, p, path)
            sf = index_of(kctx, ictx, tctx, fn, path)
            if sf != normalize(RefBase(tp)):
                raise SpecIllFormed(
                    f"base membership needs index {RefBase(tp)!r}, got {sf!r}", path
                )
        case SImp(a, b):
            spec_wf(kctx, ictx, tctx, a, path)
            spec_wf(kctx, ictx, tctx, b, path)
        case After(p, ty, body):
            tp = type_of(kctx, tctx, p, path)
            want = normalize(Comp(ty))
            if tp != want:
                raise SpecIllFormed(
                    f"modality source has type {tp!r}, expected {want!r}", path
                )
            spec_wf(kctx, ictx, tctx + (ty,), body, path)
        case SForallType(kind, body):
            spec_wf(kctx + (kind,), shift_ctx(ictx), shift_ctx(tctx), body, path)
        case SForallProg(ty, body):
            _star(kctx, ty, "quantifier annotation", path)
            spec_wf(kctx, ictx, tctx + (ty,), body, path)
        case SForallExpr(idx, body):
            index_wf(kctx, idx, path)
            spec_wf(kctx, ictx + (idx,), tctx, body, path)
        case _:
            raise TypeError(f"unexpected specification {f!r}")
