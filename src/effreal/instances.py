"""Pure instances: interpretations of the computational constructs inside
the effect-free fragment, with an evaluation strategy.

An instance replaces the computation type, return, bind and the modality
by pure constructs; derivations are instantiated node by node, with the
three modality rules replaced by instance-specific derivation templates
and anti-reduction replayed under the instance strategy.  Every template's
output is an ordinary derivation, re-checkable by the theory checker.

Shipped instances:

  identity      computations are their values; the modality is literal
                substitution.  Executable semantics: full normalization.
  continuation  the double-negation monad; the modality is membership in
                the biorthogonal of the value set, with the pole fixed to
                the comprehension of falsity over the empty type.  This is
                the classical-realizability instance; call/cc realizes
                Peirce's law.

A node with no computation type, return, bind or modality below it
(``_pure``, kept on the node when it is built) is its own image and comes
back at once, with no table lookup.  For the others, each ``instantiate``
or ``instantiate_derivation`` call keeps two tables (``_Memo``), so
neither outlives the call or serves another instance.  ``nodes`` maps
``(x, kctx[-a:], tctx[-b:])``, with ``()`` for a bound of 0, to the image
of ``x``, where ``a`` and ``b`` are its loose type and program bounds;
``types`` is the typing table (see ``effhol.typing``) of the element types
computed at returns and binds.  The suffix key is exact: the
interpretation reads the contexts only through ``type_of``, at loose
variables of ``x``, by de Bruijn index from the innermost entry.  The two
keys have the same shape, so the tables must be two dicts: one dict would
hand back a type where a program's image is asked for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ._astnode import map_children, shift, subst
from .errors import KernelError, RecheckFailed, TemplateMissing
from .effhol import syntax as e
from .effhol.conversion import normalize
from .effhol.build import anti_red, cut, hyp, imp_elim, imp_intro, mon, uni_elim, uni_intro
from .effhol.reduction import DEFAULT_FUEL, Strategy, count_steps
from .effhol.theory import EffDerivation, EffSequent, check, extend
from .effhol.syntax import PROG, TYPE
from .effhol.typing import shift_ctx, type_of
from .walk import walk


@dataclass(frozen=True)
class PureInstance:
    """A five-part interpretation into the effect-free fragment.

    Program-building callables receive already-instantiated pieces; element
    types are the instantiated types of the inner values.  ``templates``
    maps each modality rule the instance can replay to its derivation
    template, called as ``template(inst, parts, seq, *premises)`` with the
    instantiated parts of the node's goal (see ``_parts``), conclusion and
    premises.
    """

    name: str
    strategy: Strategy
    comp_type: Callable[[e.EffType], e.EffType]
    ret_prog: Callable[[e.EffType, e.EffProgram], e.EffProgram]
    bind_prog: Callable[[e.EffType, e.EffType, e.EffProgram, e.EffProgram], e.EffProgram]
    after_spec: Callable[[e.EffType, e.EffProgram, e.EffSpec], e.EffSpec]
    templates: Mapping[str, Callable] = field(default_factory=dict)


def instantiate(x, inst: PureInstance, kctx=(), tctx=()):
    """Interpret the computation type, return, bind and the modality in the
    type, index, program, expression or specification ``x``.

    ``kctx``/``tctx`` are the *original* kind and type contexts of ``x``
    (element types of returns and binds are computed there); they grow
    with the binders crossed.  Types and indices hold no return or bind, so
    they are walked without contexts.  A subtree with nothing to interpret
    comes back as the same object, unwalked.
    """
    return _instantiate(x, inst, kctx, tctx, _Memo())


class _Memo:
    """The two tables of one call (see the module docstring)."""

    __slots__ = ("nodes", "types")

    def __init__(self) -> None:
        self.nodes: dict = {}
        self.types: dict = {}


def _instantiate(x, inst, kctx, tctx, memo):
    """``instantiate``: ``x`` itself if it is pure, else looked up in
    ``memo.nodes`` first, keyed by the context suffixes it can see; the
    walk below ``x`` gets those suffixes as its contexts."""
    if x._pure:
        return x
    a, b = x._loose[TYPE.slot], x._loose[PROG.slot]
    key = (x, kctx[-a:] if a else (), tctx[-b:] if b else ())
    y = memo.nodes.get(key)
    if y is None:
        y = memo.nodes[key] = _interpret(x, inst, key[1], key[2], memo)
    return y


def _interpret(x, inst, kctx, tctx, memo):
    match x:
        case e.Comp(inner):
            return inst.comp_type(_instantiate(inner, inst, (), (), memo))
        case e.Ret(inner):
            ty = type_of(kctx, tctx, inner, None, memo.types)
            return inst.ret_prog(
                _instantiate(ty, inst, (), (), memo), _instantiate(inner, inst, kctx, tctx, memo)
            )
        case e.Bind(ty, first, rest):
            t2 = type_of(kctx, tctx + (ty,), rest, None, memo.types)
            assert isinstance(t2, e.Comp)
            return inst.bind_prog(
                _instantiate(ty, inst, (), (), memo),
                _instantiate(t2.inner, inst, (), (), memo),
                _instantiate(first, inst, kctx, tctx, memo),
                _instantiate(rest, inst, kctx, tctx + (ty,), memo),
            )
        case e.After(p, ty, body):
            return inst.after_spec(
                _instantiate(ty, inst, (), (), memo),
                _instantiate(p, inst, kctx, tctx, memo),
                _instantiate(body, inst, kctx, tctx + (ty,), memo),
            )

    def child(c, under):
        if isinstance(c, (e.EffType, e.EffIndex)):
            return _instantiate(c, inst, (), (), memo)
        if under and under[TYPE.slot]:
            return _instantiate(c, inst, kctx + (x.binder_kind,), shift_ctx(tctx), memo)
        if under and under[PROG.slot]:
            return _instantiate(c, inst, kctx, tctx + (x.binder_type,), memo)
        return _instantiate(c, inst, kctx, tctx, memo)

    return map_children(x, child)


# The names the benchmark harness (perfbench/) imports.
instantiate_type = instantiate_prog = instantiate


def assert_pure(x) -> None:
    """No computational construct survives instantiation: ``x`` is ``_pure``."""
    if not x._pure:
        raise RecheckFailed("impure construct in instance image")


def instantiate_derivation(d: EffDerivation, inst: PureInstance) -> EffDerivation:
    """Interpret a derivation; the result lies in the effect-free fragment
    and is re-checked by the caller (or by check_instance_laws).  Every
    node shares one pair of ``instantiate`` tables."""
    return walk(_instantiate_derivation, d, inst, _Memo())


def _instantiate_derivation(d, inst, memo):
    c = d.conclusion
    k, t = c.ctxs.kinds, c.ctxs.types

    def here(x, *binders):
        return None if x is None else _instantiate(x, inst, k, t + binders, memo)

    seq = EffSequent(
        e.EffContexts(k, tuple(map(here, c.ctxs.indices)), tuple(map(here, t))),
        tuple(map(here, c.hyps)),
        here(c.goal),
    )
    prems = []
    for p in d.premises:
        prems.append((yield p, inst, memo))
    prems = tuple(prems)

    if d.rule in ("ModI", "ModE", "Mon"):
        template = inst.templates.get(d.rule)
        if template is None:
            raise TemplateMissing(f"instance {inst.name} has no {d.rule} template")
        return template(inst, _parts(d, here), seq, *prems)
    if d.rule == "AntiRed":
        p1 = here(d.prog_before)
        p2 = here(d.prog_after)
        hole = here(d.hole_spec, d.hole_type)
        ty = here(d.hole_type)
        if p1 == p2:
            # the instantiated sides coincide; splice the premise
            return prems[0]
        n = count_steps(p1, p2, inst.strategy, DEFAULT_FUEL)
        if n is None:
            raise RecheckFailed(f"instance {inst.name}: anti-reduction does not replay")
        return replace(
            d,
            conclusion=seq,
            premises=prems,
            hole_spec=hole,
            hole_type=ty,
            prog_before=p1,
            prog_after=p2,
            steps=n,
            strategy=inst.strategy,
        )
    return replace(
        d,
        conclusion=seq,
        premises=prems,
        witness=here(d.witness),
        hole_spec=None,
        hole_type=None,
        prog_before=None,
        prog_after=None,
    )


# Each modality rule's premise count, and the program its goal is a
# modality over, as a class and in words.
_MODALITY = {
    "ModI": (1, e.Ret, " over a return"),
    "ModE": (1, e.Bind, " over a bind"),
    "Mon": (2, e.EffProgram, ""),
}


def _parts(node, here):
    """The instantiated parts of a ModI, ModE or Mon node; ``here(x,
    *binders)`` instantiates ``x`` in the node's contexts.

    ModI, goal ``after (ret p) (x:t) body``: ``(t, p, body)``.
    ModE, goal ``after (bind x1:t1 <- p1; p2) (x:t2) body``: ``(t1, t2, p1, p2, body)``.
    Mon, goal ``after p (x:t) phi2`` from ``after p (x:t) phi1``: ``(t, p, phi1, phi2)``.

    The templates expect a node that checks, but nothing here checks it:
    a node without these shapes raises ``RecheckFailed`` naming its rule.
    """
    arity, over, words = _MODALITY[node.rule]
    if len(node.premises) != arity:
        raise RecheckFailed(f"{node.rule}: expected {arity} premises, got {len(node.premises)}")
    goal = normalize(node.conclusion.goal)
    if not (isinstance(goal, e.After) and isinstance(goal.prog, over)):
        raise RecheckFailed(f"{node.rule}: goal is not a modality{words}")
    t2, body, p = here(goal.binder_type), here(goal.body, goal.binder_type), goal.prog
    if node.rule == "ModI":
        return t2, here(p.inner), body
    if node.rule == "ModE":
        return here(p.binder_type), t2, here(p.first), here(p.rest, p.binder_type), body
    mod = normalize(node.premises[1].conclusion.goal)
    if not isinstance(mod, e.After):
        raise RecheckFailed("Mon: premise 2's goal is not a modality")
    return t2, here(p), here(mod.body, mod.binder_type), body


# The identity instance.


def _id_modi(inst, parts, seq, prem):
    # after (ret p) x phi  and  phi[x:=p]  have the same interpretation
    return prem


def _id_mode(inst, parts, seq, prem):
    t1, t2, p1, p2, body = parts
    redex = e.App(e.Abs(t1, p2), p1)
    reduct = subst(p2, PROG, 0, p1)
    n = count_steps(redex, reduct, inst.strategy, DEFAULT_FUEL)
    if n is None:
        raise RecheckFailed("identity ModE: let-beta does not replay")
    return EffDerivation(
        "AntiRed",
        seq,
        (prem,),
        hole_spec=body,
        hole_type=t2,
        prog_before=redex,
        prog_after=reduct,
        steps=n,
        strategy=inst.strategy,
    )


def _entailment(seq, parts, ent):
    """Mon's entailment premise ``ent`` as ``∀x:t. phi1 ⇒ phi2`` in the
    node's own frame: UniProgI ∘ ImpI.  ``phi2`` is the body of the Mon
    goal, which the goal of ``ent`` equals only up to conversion."""
    tau, _, phi1, phi2 = parts
    imp = e.SImp(phi1, phi2)
    ctxs, hyps = extend(seq.ctxs, seq.hyps, PROG, tau)
    impi = EffDerivation("ImpI", EffSequent(ctxs, hyps, imp), (ent,))
    return EffDerivation(
        "UniProgI", EffSequent(seq.ctxs, seq.hyps, e.SForallProg(tau, imp)), (impi,)
    )


def _id_mon(inst, parts, seq, ent, mod):
    # ``seq``, not the consequent computed from the normal-form ``parts``:
    # the two agree only up to conversion
    upe = uni_elim("UniProgE", _entailment(seq, parts, ent), parts[1])
    return EffDerivation("ImpE", seq, (upe, mod))


def identity_instance() -> PureInstance:
    return PureInstance(
        name="identity",
        strategy=Strategy.FULL,
        comp_type=lambda t: t,
        ret_prog=lambda t, p: p,
        bind_prog=lambda t1, t2, first, rest: e.App(e.Abs(t1, rest), first),
        after_spec=lambda t, p, body: subst(body, PROG, 0, p),
        templates={"ModI": _id_modi, "ModE": _id_mode, "Mon": _id_mon},
    )


# The continuation (classical realizability) instance.

POLE = e.ComprBase(e.BOT_TYPE, e.BOT_SPEC)
# Membership of program variable 0 in the pole: the hole of the templates'
# anti-reductions.
_IN_POLE = e.SMemBase(e.PVar(0), POLE)


def orth(tau: e.EffType, expr: e.EffExpr) -> e.EffExpr:
    """The set of continuations sending every member of ``expr`` into the pole.

    ``expr`` must have index RefBase(tau); the result has index RefBase(neg tau).
    """
    return e.ComprBase(
        e.neg(tau),
        e.SForallProg(
            tau,
            e.SImp(
                e.SMemBase(e.PVar(0), shift(expr, PROG, 2)),
                e.SMemBase(e.App(e.PVar(1), e.PVar(0)), POLE),
            ),
        ),
    )


def biorth(tau: e.EffType, expr: e.EffExpr) -> e.EffExpr:
    """Biorthogonal: lifts a value set over tau to a computation set over neg neg tau."""
    return orth(e.neg(tau), orth(tau, expr))


def _cont_comp(tau: e.EffType) -> e.EffType:
    return e.neg(e.neg(tau))


def _cont_ret(tau: e.EffType, p: e.EffProgram) -> e.EffProgram:
    return e.Abs(e.neg(tau), e.App(e.PVar(0), shift(p, PROG)))


def _cont_bind(t1, t2, first, rest) -> e.EffProgram:
    inner = e.Abs(t1, e.App(shift(rest, PROG, 1, 1), e.PVar(1)))
    return e.Abs(e.neg(t2), e.App(shift(first, PROG), inner))


def _cont_after(tau: e.EffType, p: e.EffProgram, body: e.EffSpec) -> e.EffSpec:
    return e.SMemBase(p, biorth(tau, e.ComprBase(tau, body)))


# The continuation templates replay the modality rules by biorthogonality
# (Krivine, "Realizability in classical logic", 2009): a membership
# ``q ∈ orth(t, X)`` is introduced by sending a fresh ``v ∈ X`` into the
# pole and eliminated against the pole by a member of ``X``.  Applications
# enter the pole by one call-by-name anti-reduction step.  Each template
# takes its premises as proved in the node's own frame: a fact it needs
# under the fresh continuation is cut in as a hypothesis before the binder
# opens (ImpI, then ImpE against the fact), and used there by ``Id``, so no
# premise is rebuilt.


def _orth_intro(seq, q, o, inner, facts=()):
    """Prove ``seq``, whose goal is ``q ∈ o`` for an orthogonal set ``o``:
    Mem0I ∘ UniProgI ∘ ImpI under a fresh variable ``v``.
    ``inner(ctxs, hyps)`` proves ``q v ∈ pole`` in the extended contexts,
    whose last hypothesis is the orthogonality hypothesis ``v ∈ X``.  The
    goals of ``facts``, derivations in ``seq``'s frame, are the hypotheses
    just before it: they are cut in below the Mem0I."""
    goals = tuple(f.conclusion.goal for f in facts)
    hyps0 = seq.hyps + goals
    forall = subst(o.body, PROG, 0, q)
    imp = forall.body
    ctxs, hyps = extend(seq.ctxs, hyps0, PROG, forall.binder_type)
    impi = imp_intro(ctxs, hyps, imp.lhs, inner(ctxs, hyps + (imp.lhs,)))
    upi = uni_intro(seq.ctxs, hyps0, "UniProgI", impi)
    d = EffDerivation("Mem0I", EffSequent(seq.ctxs, hyps0, seq.goal), (upi,))
    return cut(seq.ctxs, seq.hyps, d, facts)


def _orth_elim(ctxs, hyps, q, o, mem, arg, arg_mem):
    """From ``mem`` proving ``q ∈ o`` for an orthogonal set ``o`` and
    ``arg_mem`` proving ``arg`` a member of its base set: ``q arg ∈ pole``,
    by Mem0E ∘ UniProgE ∘ ImpE."""
    forall = subst(o.body, PROG, 0, q)
    m0e = EffDerivation("Mem0E", EffSequent(ctxs, hyps, forall), (mem,))
    return imp_elim(uni_elim("UniProgE", m0e, arg), arg_mem)


def _unfold(ctxs, hyps, mem, x):
    """``mem`` proves ``v ∈ x`` for the innermost variable ``v`` (Mem0E)."""
    return EffDerivation(
        "Mem0E", EffSequent(ctxs, hyps, subst(x.body, PROG, 0, e.PVar(0))), (mem,)
    )


def _cont_modi(inst, parts, seq, prem):
    """Replay: membership in the biorthogonal from a proof of the body.

    The shape follows the classical-realizability inclusion of a value set
    in its biorthogonal: introduce the continuation, anti-reduce the
    application of the interpreted return, and use the continuation's
    orthogonality against the value itself.
    """
    tau, p, body = parts
    cell = e.ComprBase(tau, body)
    ret = _cont_ret(tau, p)
    p_in_cell = EffDerivation(
        "Mem0I", EffSequent(seq.ctxs, seq.hyps, e.SMemBase(p, cell)), (prem,)
    )

    def k_pole(ctxs, hyps):
        pk = shift(p, PROG)
        # k ∈ orth(cell), and the cut-in p ∈ cell just before it
        k, p_in = hyp(ctxs, hyps, hyps[-1]), hyp(ctxs, hyps, hyps[-2])
        app = _orth_elim(ctxs, hyps, e.PVar(0), shift(orth(tau, cell), PROG), k, pk, p_in)
        redex = e.App(shift(ret, PROG), e.PVar(0))
        return anti_red(ctxs, hyps, _IN_POLE, e.BOT_TYPE, redex, inst.strategy, app)

    return _orth_intro(seq, ret, biorth(tau, cell), k_pole, (p_in_cell,))


def _cont_mode(inst, parts, seq, prem):
    """Replay: the bind's continuation ``lam`` is orthogonal to the first
    computation's value set, so the first computation sends it into the pole."""
    t1, t2, p1, p2, body = parts
    cell2 = e.ComprBase(t2, body)
    cell1 = e.ComprBase(t1, _cont_after(t2, p2, shift(body, PROG, 1, 1)))
    bind = _cont_bind(t1, t2, p1, p2)
    lam = e.Abs(t1, e.App(shift(p2, PROG, 1, 1), e.PVar(1)))  # under k2

    def q_pole(ctxs, hyps):
        # q1 ∈ cell1: the rest's modality holds of p2[x1:=q1]; apply it to k2
        inner = _unfold(ctxs, hyps, hyp(ctxs, hyps, hyps[-1]), shift(cell1, PROG, 2))
        after = inner.conclusion.goal
        k2 = hyp(ctxs, hyps, hyps[-2])
        app = _orth_elim(ctxs, hyps, after.prog, after.fn, inner, e.PVar(1), k2)
        redex = e.App(shift(lam, PROG), e.PVar(0))
        return anti_red(ctxs, hyps, _IN_POLE, e.BOT_TYPE, redex, inst.strategy, app)

    def k_pole(ctxs, hyps):
        # p1 ∈ biorth(cell1), applied to lam ∈ orth(cell1)
        lam_orth = shift(orth(t1, cell1), PROG)
        lam_in = _orth_intro(
            EffSequent(ctxs, hyps, e.SMemBase(lam, lam_orth)), lam, lam_orth, q_pole
        )
        p1_in = hyp(ctxs, hyps, hyps[-2])  # the cut-in premise
        bio1 = shift(biorth(t1, cell1), PROG)
        app = _orth_elim(ctxs, hyps, shift(p1, PROG), bio1, p1_in, lam, lam_in)
        redex = e.App(shift(bind, PROG), e.PVar(0))
        return anti_red(ctxs, hyps, _IN_POLE, e.BOT_TYPE, redex, inst.strategy, app)

    return _orth_intro(seq, bind, biorth(t2, cell2), k_pole, (prem,))


def _cont_mon(inst, parts, seq, ent, mod):
    """Replay: every continuation orthogonal to the weaker cell is
    orthogonal to the stronger one, so membership in the biorthogonal is
    monotone."""
    tau, p, phi1, phi2 = parts
    cell1 = e.ComprBase(tau, phi1)
    cell2 = e.ComprBase(tau, phi2)

    def q_pole(ctxs, hyps):
        # q ∈ cell1 gives phi1 at q, the entailment phi2 at q, so q ∈ cell2;
        # the cut-in entailment lies just before k's hypothesis
        phi1_at = _unfold(ctxs, hyps, hyp(ctxs, hyps, hyps[-1]), shift(cell1, PROG, 2))
        ent_at = uni_elim("UniProgE", hyp(ctxs, hyps, hyps[-3]), e.PVar(0))
        phi2_at = imp_elim(ent_at, phi1_at)
        q_in = EffDerivation(
            "Mem0I",
            EffSequent(ctxs, hyps, e.SMemBase(e.PVar(0), shift(cell2, PROG, 2))),
            (phi2_at,),
        )
        k = hyp(ctxs, hyps, hyps[-2])
        return _orth_elim(
            ctxs, hyps, e.PVar(1), shift(orth(tau, cell2), PROG, 2), k, e.PVar(0), q_in
        )

    def k_pole(ctxs, hyps):
        # k ∈ orth(cell1), and p ∈ biorth(cell1) sends it into the pole
        orth1 = shift(orth(tau, cell1), PROG)
        k_in = _orth_intro(
            EffSequent(ctxs, hyps, e.SMemBase(e.PVar(0), orth1)), e.PVar(0), orth1, q_pole
        )
        p_in = hyp(ctxs, hyps, hyps[-3])  # the cut-in modality premise
        bio1 = shift(biorth(tau, cell1), PROG)
        return _orth_elim(ctxs, hyps, shift(p, PROG), bio1, p_in, e.PVar(0), k_in)

    facts = (mod, _entailment(seq, parts, ent))
    return _orth_intro(seq, p, biorth(tau, cell2), k_pole, facts)


def continuation_instance() -> PureInstance:
    return PureInstance(
        name="continuation",
        strategy=Strategy.CBN,
        comp_type=_cont_comp,
        ret_prog=_cont_ret,
        bind_prog=_cont_bind,
        after_spec=_cont_after,
        templates={"ModI": _cont_modi, "ModE": _cont_mode, "Mon": _cont_mon},
    )


# call/cc and friends.


def build_throw(ta: e.EffType, tb: e.EffType, k: e.EffProgram) -> e.EffProgram:
    """throw: grabs a value, drops the current continuation, restores k."""
    return e.Abs(ta, e.Abs(e.neg(tb), e.App(shift(k, PROG, 2), e.PVar(1))))


def build_cc(ta: e.EffType, tb: e.EffType) -> e.EffProgram:
    """The monomorphic control operator at types (ta, tb), CPS-style."""
    z_type = e.Fun(e.Fun(ta, _cont_comp(tb)), _cont_comp(ta))
    throw = build_throw(ta, tb, e.PVar(0))
    return e.Abs(z_type, e.Abs(e.neg(ta), e.App(e.App(e.PVar(1), throw), e.PVar(0))))


def build_callcc() -> e.EffProgram:
    """The polymorphic realizer of Peirce's law (continuation instance)."""
    cc = build_cc(e.TVar(1), e.TVar(0))
    cc_type = type_of((e.KSTAR, e.KSTAR), (), cc)
    inner = e.TyAbs(e.KSTAR, _cont_ret(cc_type, cc))
    inner_type = type_of((e.KSTAR,), (), inner)
    return e.TyAbs(e.KSTAR, _cont_ret(inner_type, inner))


# Instance law checking at desk scale.


@dataclass
class LawReport:
    instance: str
    results: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, law: str, ok: bool, detail: str = "") -> None:
        passed, total = self.results.get(law, (0, 0))
        self.results[law] = (passed + (1 if ok else 0), total + 1)
        if not ok:
            self.failures.append((law, detail))

    @property
    def ok(self) -> bool:
        return not self.failures


def _law_modi_case(rng) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    p = random_typed_program(rng, (), (), 3)
    tau = type_of((), (), p)
    body = random_spec(rng, (), (tau,), 2)
    goal = e.After(e.Ret(p), tau, body)
    prem_goal = subst(body, PROG, 0, p)
    hyps = (prem_goal,)
    return EffDerivation(
        "ModI", EffSequent(e.EffContexts(), hyps, goal), (hyp(e.EffContexts(), hyps, prem_goal),)
    )


def _law_mode_case(rng) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    p1v = random_typed_program(rng, (), (), 2)
    t1 = type_of((), (), p1v)
    rest_v = random_typed_program(rng, (), (t1,), 2)
    t2 = type_of((), (t1,), rest_v)
    b = e.Bind(t1, e.Ret(p1v), e.Ret(rest_v))
    body = random_spec(rng, (), (t2,), 2)
    goal = e.After(b, t2, body)
    inner = e.After(e.Ret(rest_v), t2, shift(body, PROG, 1, 1))
    prem_goal = e.After(e.Ret(p1v), t1, inner)
    hyps = (prem_goal,)
    return EffDerivation(
        "ModE", EffSequent(e.EffContexts(), hyps, goal), (hyp(e.EffContexts(), hyps, prem_goal),)
    )


def _law_mon_case(rng) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    p = random_typed_program(rng, (), (), 2)
    tau = type_of((), (), p)
    phi1 = random_spec(rng, (), (tau,), 2)
    mod_goal = e.After(e.Ret(p), tau, phi1)
    hyps = (mod_goal,)
    ctx1, ent_hyps = extend(e.EffContexts(), hyps, PROG, tau)
    ent_hyps += (phi1,)
    ent = imp_intro(ctx1, ent_hyps, e.BOT_SPEC, hyp(ctx1, ent_hyps + (e.BOT_SPEC,), phi1))
    return mon(ent, hyp(e.EffContexts(), hyps, mod_goal))


def _law_antired_case(rng) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    v = random_typed_program(rng, (), (), 2)
    tau = type_of((), (), v)
    redex = e.Bind(tau, e.Ret(v), e.Ret(e.PVar(0)))
    hole = random_spec(rng, (), (e.Comp(tau),), 2)
    hyps = (subst(hole, PROG, 0, e.Ret(v)),)
    prem = hyp(e.EffContexts(), hyps, hyps[0])
    return anti_red(e.EffContexts(), hyps, hole, e.Comp(tau), redex, Strategy.BASE, prem)


LAW_CASES = {
    "ModI": _law_modi_case,
    "ModE": _law_mode_case,
    "Mon": _law_mon_case,
    "AntiRed": _law_antired_case,
}


def law_samples(samples_per_law: int = 50, seed: int = 0):
    """The sampled law derivations, as (law, derivation) pairs.

    Each law draws from its own generator, seeded from the law's name and
    ``seed`` only, so the samples are the same in every process.
    """
    for law, case in LAW_CASES.items():
        rng = random.Random(f"{law}:{seed}")
        for _ in range(samples_per_law):
            yield law, case(rng)


def check_instance_laws(
    inst: PureInstance, samples_per_law: int = 50, seed: int = 0
) -> LawReport:
    """Sample-based replay of the modality laws under instantiation."""
    report = LawReport(inst.name)
    for law, d in law_samples(samples_per_law, seed):
        try:
            check(d)
            d2 = instantiate_derivation(d, inst)
            check(d2)
            assert_pure(d2.conclusion.goal)
            report.record(law, True)
        except KernelError as exc:
            report.record(law, False, f"{type(exc).__name__}: {exc}")
    return report
