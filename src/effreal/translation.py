"""The realizability translation and constructive realizer extraction.

Sorts become kinds and (type-parameterized) indices; terms become types
and expressions; propositions become types (of their realizers) and
specifications (of which programs realize them).  A free logic variable at
context position i maps to the type variable and the expression variable
at the same position, so the lifted kind and index contexts stay aligned
with the sort context.

Specifications produced by ``trspec`` have exactly one free program
variable, index 0: the distinguished realizer.

Each ``extract_realizer`` or ``translate_prop`` call translates every
proposition and term once: ``trtype``, ``trspec``, ``tretype`` and
``trtrm`` look their argument up in the call's ``_Memo`` first.  The
proposition or term alone is an exact key, because the four maps extend
``sctx`` but never read it, and nodes are hash-consed.

``extract_realizer`` walks a checked derivation and emits the realizer
dictated by the soundness proof, one construct per rule;
``extract_realizer(..., derive=True)`` additionally replays the proof of
the resulting triple inside the target theory (supported for the
implication and universal rules plus hypotheses; the membership rules
require substitution reasoning and fail gracefully).  The root frame is
translated once; each premise is replayed in the frame its parent's own
nodes use, so no premise is rebuilt or weakened: at ImpE the argument's
triple is cut in as a hypothesis of the function premise, which carries it
under the binder of the function's result.  ``Id`` reads the hypotheses
the same way: the root's, then at each premise those the source checker's
``premise_frame`` computes from its parent's, in order, not a node's own
list, which the source checker compares only as a set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._astnode import shift, subst
from .errors import IllSorted, LemmaViolation, TemplateMissing
from .hol import checker as hc
from .hol import syntax as h
from .effhol import syntax as e
from .effhol.build import anti_red, bind, cut, hyp, imp_elim, imp_intro, uni_elim, uni_intro
from .effhol.reduction import Strategy
from .effhol.syntax import EXPR, PROG, TYPE
from .effhol.theory import EffDerivation, EffSequent, extend, sequent_wf
from .walk import walk


def trkind(s: h.Sort) -> e.Kind:
    match s:
        case h.Base():
            return e.KSTAR
        case h.Pred(inner):
            return e.KCon(trkind(inner))
    raise TypeError(f"unexpected sort {s!r}")


def trind(tau: e.EffType, s: h.Sort) -> e.EffIndex:
    match s:
        case h.Base():
            return e.RefBase(tau)
        case h.Pred(inner):
            return e.IForall(
                trkind(inner),
                e.Ref(e.TApp(shift(tau, TYPE), e.TVar(0)), trind(e.TVar(0), inner)),
            )
    raise TypeError(f"unexpected sort {s!r}")


class _Memo:
    """The tables of one translation: ``types`` holds ``trtype`` of
    propositions and ``tretype`` of terms, ``specs`` holds ``trspec`` of
    propositions and ``trtrm`` of terms; propositions and terms are nodes
    of distinct classes, so they share the two tables."""

    __slots__ = ("types", "specs")

    def __init__(self) -> None:
        self.types: dict = {}
        self.specs: dict = {}


def tretype(sctx: hc.SortContext, t: h.HolTerm, memo: _Memo | None = None) -> e.EffType:
    if memo is None:
        memo = _Memo()
    ty = memo.types.get(t)
    if ty is None:
        match t:
            case h.Var(i):
                ty = e.TVar(i)
            case h.Compr(s, body):
                ty = e.TAbs(trkind(s), trtype(sctx + (s,), body, memo))
            case h.ComprBase(body):
                ty = trtype(sctx, body, memo)
            case _:
                raise TypeError(f"unexpected term {t!r}")
        memo.types[t] = ty
    return ty


def trtrm(sctx: hc.SortContext, t: h.HolTerm, memo: _Memo | None = None) -> e.EffExpr:
    if memo is None:
        memo = _Memo()
    ex = memo.specs.get(t)
    if ex is None:
        match t:
            case h.Var(i):
                ex = e.EVar(i)
            case h.Compr(s, body):
                inner = sctx + (s,)
                ex = e.EForall(
                    trkind(s),
                    e.Compr(
                        trtype(inner, body, memo),
                        trind(e.TVar(0), s),
                        trspec(inner, body, memo),
                    ),
                )
            case h.ComprBase(body):
                ex = e.ComprBase(trtype(sctx, body, memo), trspec(sctx, body, memo))
            case _:
                raise TypeError(f"unexpected term {t!r}")
        memo.specs[t] = ex
    return ex


def trtype(sctx: hc.SortContext, p: h.HolProp, memo: _Memo | None = None) -> e.EffType:
    if memo is None:
        memo = _Memo()
    ty = memo.types.get(p)
    if ty is None:
        match p:
            case h.Imp(a, b):
                ty = e.Fun(trtype(sctx, a, memo), e.Comp(trtype(sctx, b, memo)))
            case h.Forall(s, body):
                ty = e.TForall(trkind(s), e.Comp(trtype(sctx + (s,), body, memo)))
            case h.Mem(el, st):
                ty = e.TApp(tretype(sctx, st, memo), tretype(sctx, el, memo))
            case h.MemBase(t):
                ty = tretype(sctx, t, memo)
            case _:
                raise IllSorted(f"unexpected proposition {p!r}")
        memo.types[p] = ty
    return ty


def trspec(sctx: hc.SortContext, p: h.HolProp, memo: _Memo | None = None) -> e.EffSpec:
    """The specification of realizers of ``p``; program variable 0 is the realizer."""
    if memo is None:
        memo = _Memo()
    sp = memo.specs.get(p)
    if sp is None:
        match p:
            case h.Imp(a, b):
                sp = e.SForallProg(
                    trtype(sctx, a, memo),
                    e.SImp(
                        trspec(sctx, a, memo),
                        e.After(
                            e.App(e.PVar(1), e.PVar(0)),
                            trtype(sctx, b, memo),
                            trspec(sctx, b, memo),
                        ),
                    ),
                )
            case h.Forall(s, body):
                inner = sctx + (s,)
                sp = e.SForallType(
                    trkind(s),
                    e.SForallExpr(
                        trind(e.TVar(0), s),
                        e.After(
                            e.TyApp(e.PVar(0), e.TVar(0)),
                            trtype(inner, body, memo),
                            trspec(inner, body, memo),
                        ),
                    ),
                )
            case h.Mem(el, st):
                sp = e.SMem(
                    e.PVar(0),
                    e.EApp(trtrm(sctx, st, memo), tretype(sctx, el, memo)),
                    trtrm(sctx, el, memo),
                )
            case h.MemBase(t):
                sp = e.SMemBase(e.PVar(0), trtrm(sctx, t, memo))
            case _:
                raise IllSorted(f"unexpected proposition {p!r}")
        memo.specs[p] = sp
    return sp


def lift_contexts(sctx: hc.SortContext) -> tuple[tuple[e.Kind, ...], tuple[e.EffIndex, ...]]:
    """The kind and index contexts of the translated judgment, position-aligned."""
    n = len(sctx)
    kinds = tuple(trkind(s) for s in sctx)
    indices = tuple(trind(e.TVar(n - 1 - i), s) for i, s in enumerate(sctx))
    return kinds, indices


@dataclass(frozen=True)
class TranslationOutput:
    type: e.EffType
    spec: e.EffSpec
    kind_ctx: tuple[e.Kind, ...]
    index_ctx: tuple[e.EffIndex, ...]


def translate_prop(sctx: hc.SortContext, p: h.HolProp) -> TranslationOutput:
    hc.prop_wf(sctx, p)
    kinds, indices = lift_contexts(sctx)
    memo = _Memo()
    return TranslationOutput(trtype(sctx, p, memo), trspec(sctx, p, memo), kinds, indices)


def subst_lemma_prop_clauses(sctx: hc.SortContext, p: h.HolProp, t: h.HolTerm) -> None:
    """Clauses for propositions: translation to types and to specifications
    commutes with substitution.  ``t`` is sorted in ``sctx``; ``p`` is
    well-formed in ``sctx`` extended by t's sort, with the substituted
    variable at index 0."""
    s = hc.sort_of(sctx, t)
    inner = sctx + (s,)
    hc.prop_wf(inner, p)
    tt = tretype(sctx, t)
    te = trtrm(sctx, t)
    subst_p = subst(p, h.TERM, 0, t)

    lhs1 = trtype(sctx, subst_p)
    rhs1 = subst(trtype(inner, p), TYPE, 0, tt)
    if lhs1 != rhs1:
        raise LemmaViolation(f"type clause fails for {p!r}[0:={t!r}]")

    lhs2 = trspec(sctx, subst_p)
    rhs2 = subst(subst(trspec(inner, p), TYPE, 0, tt), EXPR, 0, te)
    if lhs2 != rhs2:
        raise LemmaViolation(f"spec clause fails for {p!r}[0:={t!r}]")


def subst_lemma_term_clauses(sctx: hc.SortContext, tp: h.HolTerm, t: h.HolTerm) -> None:
    """Clauses for terms: translation to expressions and to types commutes
    with substitution.  ``tp`` is sorted in ``sctx`` extended by t's sort.

    Note: the expression clause needs the type substitution as well as the
    expression substitution, since translated comprehensions embed the
    body's realizer type.
    """
    s = hc.sort_of(sctx, t)
    inner = sctx + (s,)
    hc.sort_of(inner, tp)
    tt = tretype(sctx, t)
    te = trtrm(sctx, t)

    lhs3 = trtrm(sctx, subst(tp, h.TERM, 0, t))
    rhs3 = subst(subst(trtrm(inner, tp), TYPE, 0, tt), EXPR, 0, te)
    if lhs3 != rhs3:
        raise LemmaViolation(f"expression clause fails for {tp!r}[0:={t!r}]")

    lhs4 = tretype(sctx, subst(tp, h.TERM, 0, t))
    rhs4 = subst(tretype(inner, tp), TYPE, 0, tt)
    if lhs4 != rhs4:
        raise LemmaViolation(f"type-of-term clause fails for {tp!r}[0:={t!r}]")


def check_substitution_lemma(sctx: hc.SortContext, p: h.HolProp, t: h.HolTerm) -> None:
    """Assert all four substitution equalities: the proposition clauses on
    (p, t) and the term clauses on every top-level subterm of p."""
    subst_lemma_prop_clauses(sctx, p, t)
    for tp in _subterms_of_prop(p):
        subst_lemma_term_clauses(sctx, tp, t)


def _subterms_of_prop(p: h.HolProp):
    match p:
        case h.MemBase(t):
            yield t
        case h.Mem(el, st):
            yield el
            yield st
        case h.Imp(a, b):
            yield from _subterms_of_prop(a)
            yield from _subterms_of_prop(b)
        case h.Forall(_, _):
            # subterms under the binder live in a different context
            return


@dataclass(frozen=True)
class Ambient:
    """Extra target-side context and assumptions of the root frame: the
    contexts go outermost, the hypotheses after the root's own."""

    kinds: tuple[e.Kind, ...] = ()
    indices: tuple[e.EffIndex, ...] = ()
    types: tuple[e.EffType, ...] = ()
    hyps: tuple[e.EffSpec, ...] = ()


EMPTY_AMBIENT = Ambient()


@dataclass(frozen=True)
class ExtractionResult:
    realizer: e.EffProgram
    goal_triple: EffSequent
    derivation: EffDerivation | None = None


def _hyp_var(n_hyps: int, i: int) -> int:
    """De Bruijn index of the i-th (leftmost = 0) hypothesis variable."""
    return n_hyps - 1 - i


def _realize(d: hc.HolDerivation, scope: tuple, prems: tuple, memo: _Memo) -> e.EffProgram:
    """The realizer of ``d``'s conclusion, from its premises' realizers;
    ``Id`` takes the variable of the goal's first occurrence in ``scope``."""
    c = d.conclusion
    sctx = c.ctx
    match d.rule:
        case "Id":
            return e.Ret(e.PVar(_hyp_var(len(scope), scope.index(c.goal))))
        case "ImpI":
            assert isinstance(c.goal, h.Imp)
            return e.Ret(e.Abs(trtype(sctx, c.goal.lhs, memo), prems[0]))
        case "ImpE":
            imp = d.premises[0].conclusion.goal
            assert isinstance(imp, h.Imp)
            t_imp = trtype(sctx, imp, memo)
            t_arg = trtype(sctx, imp.lhs, memo)
            rest = e.Bind(t_arg, shift(prems[1], PROG), e.App(e.PVar(1), e.PVar(0)))
            return e.Bind(t_imp, prems[0], rest)
        case "UniI":
            assert isinstance(c.goal, h.Forall)
            return e.Ret(e.TyAbs(trkind(c.goal.binder_sort), prems[0]))
        case "UniE":
            t_all = trtype(sctx, d.premises[0].conclusion.goal, memo)
            return e.Bind(t_all, prems[0], e.TyApp(e.PVar(0), tretype(sctx, d.witness, memo)))
        case "MemI" | "MemE" | "Mem0I" | "Mem0E":
            return prems[0]
    raise TemplateMissing(f"no realizer for rule {d.rule!r}")


def _realizer(d: hc.HolDerivation, scope: tuple, memo: _Memo):
    sub = hc.premise_frame(d.rule, replace(d.conclusion, hyps=scope))[1]
    prems = []
    for p in d.premises:
        prems.append((yield p, sub, memo))
    return _realize(d, scope, tuple(prems), memo)


def _contexts(seq: hc.Sequent, amb: Ambient, memo: _Memo) -> EffSequent:
    """The translated root frame: contexts plus pointed hypothesis specs."""
    kinds, indices = lift_contexts(seq.ctx)
    types = tuple(trtype(seq.ctx, psi, memo) for psi in seq.hyps)
    n = len(seq.hyps)
    pointed = tuple(
        subst(trspec(seq.ctx, psi, memo), PROG, 0, e.PVar(_hyp_var(n, i)))
        for i, psi in enumerate(seq.hyps)
    )
    ctxs = e.EffContexts(amb.kinds + kinds, amb.indices + indices, amb.types + types)
    return EffSequent(ctxs, pointed + amb.hyps, trspec(seq.ctx, seq.goal, memo))


def extract_realizer(
    d: hc.HolDerivation, ambient: Ambient = EMPTY_AMBIENT, derive: bool = False
) -> ExtractionResult:
    """Check ``d``, then extract the soundness realizer (and optionally the
    target-theory derivation of its triple), and check the triple."""
    hc.check(d)
    memo = _Memo()
    c = d.conclusion
    frame = _contexts(c, ambient, memo)
    deriv = walk(_derive, d, c.hyps, frame.ctxs, frame.hyps, memo) if derive else None
    realizer = walk(_realizer, d, c.hyps, memo) if deriv is None else deriv.conclusion.goal.prog
    triple = replace(frame, goal=e.After(realizer, trtype(c.ctx, c.goal, memo), frame.goal))
    sequent_wf(triple, {})  # the triple's one check: it types the realizer too
    return ExtractionResult(realizer, triple, deriv)


# Derivation replay for the soundness triples.


def _derive(d: hc.HolDerivation, scope: tuple, ctxs, hyps, memo: _Memo):
    """The replay of ``d`` in the frame ``ctxs``, ``hyps`` that its parent's
    nodes use (the root frame at the root), with ``scope`` the hypotheses
    in scope as ``_realize`` reads them; a walk (see ``walk``)."""
    c = d.conclusion
    sctx = c.ctx
    if d.rule in ("MemI", "MemE", "Mem0I", "Mem0E"):
        raise TemplateMissing(
            f"--derive does not replay {d.rule} nodes (substitution reasoning); "
            "the extracted realizer and its typing are still produced"
        )
    sub = hc.premise_frame(d.rule, replace(c, hyps=scope))[1]
    goal = trspec(sctx, c.goal, memo)
    match d.rule:
        case "Id":
            r = _realize(d, scope, (), memo)
            prem = hyp(ctxs, hyps, subst(goal, PROG, 0, r.inner))

        case "ImpI":
            s1 = trspec(sctx, c.goal.lhs, memo)
            ctx1, hyps1 = extend(ctxs, hyps, PROG, trtype(sctx, c.goal.lhs, memo))
            ih = yield d.premises[0], sub, ctx1, hyps1 + (s1,), memo
            r = _realize(d, scope, (ih.conclusion.goal.prog,), memo)
            anti = _anti_red(e.App(shift(r.inner, PROG), e.PVar(0)), ih)
            prem = uni_intro(ctxs, hyps, "UniProgI", imp_intro(ctx1, hyps1, s1, anti))

        case "UniI":
            s = c.goal.binder_sort
            ctx_k, hyps_k = extend(ctxs, hyps, TYPE, trkind(s))
            ctx_ke, hyps_ke = extend(ctx_k, hyps_k, EXPR, trind(e.TVar(0), s))
            ih = yield d.premises[0], sub, ctx_ke, hyps_ke, memo
            r = _realize(d, scope, (ih.conclusion.goal.prog,), memo)
            anti = _anti_red(e.TyApp(shift(r.inner, TYPE), e.TVar(0)), ih)
            uei = uni_intro(ctx_k, hyps_k, "UniExpI", anti)
            prem = uni_intro(ctxs, hyps, "UniTypeI", uei)

        case "ImpE":
            fn, arg = d.premises
            # The argument first: its triple is a hypothesis of the function
            # premise and, shifted, hyps1[-2].
            ih1 = yield arg, sub, ctxs, hyps, memo
            hyps0 = hyps + (ih1.conclusion.goal,)
            ih0 = yield fn, sub, ctxs, hyps0, memo
            imp = fn.conclusion.goal
            s_imp = trspec(sctx, imp, memo)
            tau1 = trtype(sctx, imp.lhs, memo)
            s1 = trspec(sctx, imp.lhs, memo)
            ctx1, hyps1 = extend(ctxs, hyps0, PROG, trtype(sctx, imp, memo))
            hyps1 += (s_imp,)
            ctx2, hyps2 = extend(ctx1, hyps1, PROG, tau1)
            hyps2 += (s1,)
            upe = uni_elim("UniProgE", hyp(ctx2, hyps2, shift(s_imp, PROG)), e.PVar(0))
            pi = imp_elim(upe, hyp(ctx2, hyps2, s1))
            rest = bind(pi, hyp(ctx1, hyps1, hyps1[-2]))
            return cut(ctxs, hyps, bind(rest, ih0), (ih1,))

        case "UniE":
            (p,) = d.premises
            ih = yield p, sub, ctxs, hyps, memo
            s_all = trspec(sctx, p.conclusion.goal, memo)
            ctx1, hyps1 = extend(ctxs, hyps, PROG, trtype(sctx, p.conclusion.goal, memo))
            idf = hyp(ctx1, hyps1 + (s_all,), s_all)
            ute = uni_elim("UniTypeE", idf, tretype(sctx, d.witness, memo))
            return bind(uni_elim("UniExpE", ute, trtrm(sctx, d.witness, memo)), ih)

    # Id, ImpI and UniI realize by a return, which ModI introduces
    concl = EffSequent(ctxs, hyps, e.After(r, trtype(sctx, c.goal, memo), goal))
    return EffDerivation("ModI", concl, (prem,))


def _anti_red(before, ih):
    """AntiRed in the frame of ``ih``: ``before`` reduces in one base step
    to the realizer of the triple ``ih`` proves, and satisfies its
    specification."""
    c = ih.conclusion
    g = c.goal
    hole = e.After(e.PVar(0), g.binder_type, shift(g.body, PROG, 1, 1))
    return anti_red(c.ctxs, c.hyps, hole, e.Comp(g.binder_type), before, Strategy.BASE, ih)
