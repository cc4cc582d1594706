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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from ._astnode import shift, subst
from .errors import KernelError, RecheckFailed, TemplateMissing
from .effhol import syntax as e
from .effhol.conversion import normalize
from .effhol.reduction import Strategy, count_steps, root_step
from .effhol.theory import (
    EffDerivation,
    EffSequent,
    add_hypotheses,
    check,
    weaken_type,
)
from .effhol.syntax import PROG
from .effhol.typing import shift_ctx, type_of


@dataclass(frozen=True)
class PureInstance:
    """A five-part interpretation into the effect-free fragment.

    Program-building callables receive already-instantiated pieces; element
    types are the instantiated types of the inner values.
    """

    name: str
    strategy: Strategy
    comp_type: Callable[[e.EffType], e.EffType]
    ret_prog: Callable[[e.EffType, e.EffProgram], e.EffProgram]
    bind_prog: Callable[[e.EffType, e.EffType, e.EffProgram, e.EffProgram], e.EffProgram]
    after_spec: Callable[[e.EffType, e.EffProgram, e.EffSpec], e.EffSpec]
    modi_template: Callable = None
    mode_template: Callable = None
    mon_template: Callable = None
    # Whether the erased computations run under the frame's untyped
    # normalizer (the instance has an executable untyped semantics).
    untyped_lift: bool = False
    normalize_fuel: int = 10_000


def instantiate_type(t: e.EffType, inst: PureInstance) -> e.EffType:
    match t:
        case e.TVar(_):
            return t
        case e.TApp(fn, arg):
            return e.TApp(instantiate_type(fn, inst), instantiate_type(arg, inst))
        case e.TAbs(k, body):
            return e.TAbs(k, instantiate_type(body, inst))
        case e.Fun(dom, cod):
            return e.Fun(instantiate_type(dom, inst), instantiate_type(cod, inst))
        case e.TForall(k, body):
            return e.TForall(k, instantiate_type(body, inst))
        case e.Comp(inner):
            return inst.comp_type(instantiate_type(inner, inst))
    raise TypeError(f"unexpected type {t!r}")


def instantiate_index(s: e.EffIndex, inst: PureInstance) -> e.EffIndex:
    match s:
        case e.RefBase(carrier):
            return e.RefBase(instantiate_type(carrier, inst))
        case e.Ref(carrier, arg):
            return e.Ref(instantiate_type(carrier, inst), instantiate_index(arg, inst))
        case e.IForall(k, body):
            return e.IForall(k, instantiate_index(body, inst))
    raise TypeError(f"unexpected index {s!r}")


def instantiate_prog(
    p: e.EffProgram, inst: PureInstance, kctx=(), tctx=()
) -> e.EffProgram:
    """Structural interpretation; ``kctx``/``tctx`` are the *original*
    contexts (element types of returns and binds are computed there)."""
    match p:
        case e.PVar(_):
            return p
        case e.TyAbs(k, body):
            return e.TyAbs(k, instantiate_prog(body, inst, kctx + (k,), shift_ctx(tctx)))
        case e.Abs(ty, body):
            return e.Abs(
                instantiate_type(ty, inst),
                instantiate_prog(body, inst, kctx, tctx + (ty,)),
            )
        case e.TyApp(fn, arg):
            return e.TyApp(instantiate_prog(fn, inst, kctx, tctx), instantiate_type(arg, inst))
        case e.App(fn, arg):
            return e.App(
                instantiate_prog(fn, inst, kctx, tctx),
                instantiate_prog(arg, inst, kctx, tctx),
            )
        case e.Ret(inner):
            ty = type_of(kctx, tctx, inner)
            return inst.ret_prog(
                instantiate_type(ty, inst), instantiate_prog(inner, inst, kctx, tctx)
            )
        case e.Bind(ty, first, rest):
            t2 = type_of(kctx, tctx + (ty,), rest)
            assert isinstance(t2, e.Comp)
            return inst.bind_prog(
                instantiate_type(ty, inst),
                instantiate_type(t2.inner, inst),
                instantiate_prog(first, inst, kctx, tctx),
                instantiate_prog(rest, inst, kctx, tctx + (ty,)),
            )
    raise TypeError(f"unexpected program {p!r}")


def instantiate_expr(x: e.EffExpr, inst: PureInstance, kctx=(), tctx=()) -> e.EffExpr:
    match x:
        case e.EVar(_):
            return x
        case e.Compr(ty, idx, body):
            return e.Compr(
                instantiate_type(ty, inst),
                instantiate_index(idx, inst),
                instantiate_spec(body, inst, kctx, tctx + (ty,)),
            )
        case e.ComprBase(ty, body):
            return e.ComprBase(
                instantiate_type(ty, inst),
                instantiate_spec(body, inst, kctx, tctx + (ty,)),
            )
        case e.EForall(k, body):
            return e.EForall(k, instantiate_expr(body, inst, kctx + (k,), shift_ctx(tctx)))
        case e.EApp(fn, arg):
            return e.EApp(instantiate_expr(fn, inst, kctx, tctx), instantiate_type(arg, inst))
    raise TypeError(f"unexpected expression {x!r}")


def instantiate_spec(f: e.EffSpec, inst: PureInstance, kctx=(), tctx=()) -> e.EffSpec:
    match f:
        case e.SMem(p, fn, arg):
            return e.SMem(
                instantiate_prog(p, inst, kctx, tctx),
                instantiate_expr(fn, inst, kctx, tctx),
                instantiate_expr(arg, inst, kctx, tctx),
            )
        case e.SMemBase(p, fn):
            return e.SMemBase(
                instantiate_prog(p, inst, kctx, tctx),
                instantiate_expr(fn, inst, kctx, tctx),
            )
        case e.SImp(a, b):
            return e.SImp(
                instantiate_spec(a, inst, kctx, tctx),
                instantiate_spec(b, inst, kctx, tctx),
            )
        case e.After(p, ty, body):
            return inst.after_spec(
                instantiate_type(ty, inst),
                instantiate_prog(p, inst, kctx, tctx),
                instantiate_spec(body, inst, kctx, tctx + (ty,)),
            )
        case e.SForallType(k, body):
            return e.SForallType(
                k, instantiate_spec(body, inst, kctx + (k,), shift_ctx(tctx))
            )
        case e.SForallProg(ty, body):
            return e.SForallProg(
                instantiate_type(ty, inst),
                instantiate_spec(body, inst, kctx, tctx + (ty,)),
            )
        case e.SForallExpr(idx, body):
            return e.SForallExpr(
                instantiate_index(idx, inst),
                instantiate_spec(body, inst, kctx, tctx),
            )
    raise TypeError(f"unexpected specification {f!r}")


def instantiate_sequent(seq: EffSequent, inst: PureInstance) -> EffSequent:
    k, i, t = seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types
    ctxs = e.EffContexts(
        k,
        tuple(instantiate_index(s, inst) for s in i),
        tuple(instantiate_type(ty, inst) for ty in t),
    )
    return EffSequent(
        ctxs,
        tuple(instantiate_spec(h, inst, k, t) for h in seq.hyps),
        instantiate_spec(seq.goal, inst, k, t),
    )


def assert_pure(x) -> None:
    """Syntactic scan: no computational construct survives instantiation."""
    forbidden = (e.Comp, e.Ret, e.Bind, e.After)
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, forbidden):
            raise RecheckFailed(f"impure construct {type(node).__name__} in instance image")
        if hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                v = getattr(node, name)
                if isinstance(v, (e.EffType, e.EffProgram, e.EffSpec, e.EffExpr, e.EffIndex)):
                    stack.append(v)


def instantiate_derivation(d: EffDerivation, inst: PureInstance) -> EffDerivation:
    """Interpret a derivation; the result lies in the effect-free fragment
    and is re-checked by the caller (or by check_instance_laws)."""
    seq = instantiate_sequent(d.conclusion, inst)
    k = d.conclusion.ctxs.kinds
    t = d.conclusion.ctxs.types
    prems = tuple(instantiate_derivation(p, inst) for p in d.premises)

    match d.rule:
        case "ModI":
            goal = normalize(d.conclusion.goal)
            assert isinstance(goal, e.After) and isinstance(goal.prog, e.Ret)
            if inst.modi_template is None:
                raise TemplateMissing(f"instance {inst.name} has no ModI template")
            return inst.modi_template(inst, d, seq, prems[0])
        case "ModE":
            if inst.mode_template is None:
                raise TemplateMissing(f"instance {inst.name} has no ModE template")
            return inst.mode_template(inst, d, seq, prems[0])
        case "Mon":
            if inst.mon_template is None:
                raise TemplateMissing(f"instance {inst.name} has no Mon template")
            return inst.mon_template(inst, d, seq, prems[0], prems[1])
        case "AntiRed":
            p1 = instantiate_prog(d.prog_before, inst, k, t)
            p2 = instantiate_prog(d.prog_after, inst, k, t)
            hole = instantiate_spec(d.hole_spec, inst, k, t + (d.hole_type,))
            ty = instantiate_type(d.hole_type, inst)
            if p1 == p2:
                # the instantiated sides coincide; splice the premise
                return prems[0]
            n = count_steps(p1, p2, inst.strategy, inst.normalize_fuel)
            if n is None:
                raise RecheckFailed(
                    f"instance {inst.name}: anti-reduction does not replay"
                )
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
        case _:
            return replace(
                d,
                conclusion=seq,
                premises=prems,
                witness_prog=None
                if d.witness_prog is None
                else instantiate_prog(d.witness_prog, inst, k, t),
                witness_expr=None
                if d.witness_expr is None
                else instantiate_expr(d.witness_expr, inst, k, t),
                witness_type=None
                if d.witness_type is None
                else instantiate_type(d.witness_type, inst),
                hole_spec=None,
                hole_type=None,
                prog_before=None,
                prog_after=None,
            )


# The identity instance.


def _id_modi(inst, node, seq, prem):
    # after (ret p) x phi  and  phi[x:=p]  have the same interpretation
    return prem


def _id_mode(inst, node, seq, prem):
    goal = normalize(node.conclusion.goal)
    b = goal.prog
    assert isinstance(goal, e.After) and isinstance(b, e.Bind)
    k = node.conclusion.ctxs.kinds
    t = node.conclusion.ctxs.types
    body_i = instantiate_spec(goal.body, inst, k, t + (goal.binder_type,))
    first_i = instantiate_prog(b.first, inst, k, t)
    rest_i = instantiate_prog(b.rest, inst, k, t + (b.binder_type,))
    t1_i = instantiate_type(b.binder_type, inst)
    t2_i = instantiate_type(goal.binder_type, inst)
    redex = e.App(e.Abs(t1_i, rest_i), first_i)
    reduct = subst(rest_i, PROG, 0, first_i)
    n = count_steps(redex, reduct, inst.strategy, inst.normalize_fuel)
    if n is None:
        raise RecheckFailed("identity ModE: let-beta does not replay")
    return EffDerivation(
        "AntiRed",
        seq,
        (prem,),
        hole_spec=body_i,
        hole_type=t2_i,
        prog_before=redex,
        prog_after=reduct,
        steps=n,
        strategy=inst.strategy,
    )


def _id_mon(inst, node, seq, ent, mod):
    goal = normalize(node.conclusion.goal)
    assert isinstance(goal, e.After)
    k = node.conclusion.ctxs.kinds
    t = node.conclusion.ctxs.types
    mod_goal = normalize(node.premises[1].conclusion.goal)
    assert isinstance(mod_goal, e.After)
    tau_i = instantiate_type(goal.binder_type, inst)
    p_i = instantiate_prog(goal.prog, inst, k, t)
    phi1_i = instantiate_spec(mod_goal.body, inst, k, t + (mod_goal.binder_type,))
    phi2_i = instantiate_spec(goal.body, inst, k, t + (goal.binder_type,))
    impi = EffDerivation(
        "ImpI",
        EffSequent(ent.conclusion.ctxs, tuple(shift(h, PROG) for h in seq.hyps),
                   e.SImp(phi1_i, phi2_i)),
        (ent,),
    )
    upi = EffDerivation(
        "UniProgI",
        EffSequent(seq.ctxs, seq.hyps, e.SForallProg(tau_i, e.SImp(phi1_i, phi2_i))),
        (impi,),
    )
    upe = EffDerivation(
        "UniProgE",
        EffSequent(
            seq.ctxs,
            seq.hyps,
            subst(e.SImp(phi1_i, phi2_i), PROG, 0, p_i),
        ),
        (upi,),
        witness_prog=p_i,
    )
    return EffDerivation("ImpE", seq, (upe, mod))


def identity_instance(fuel: int = 10_000) -> PureInstance:
    return PureInstance(
        name="identity",
        strategy=Strategy.FULL,
        comp_type=lambda t: t,
        ret_prog=lambda t, p: p,
        bind_prog=lambda t1, t2, first, rest: e.App(e.Abs(t1, rest), first),
        after_spec=lambda t, p, body: subst(body, PROG, 0, p),
        modi_template=_id_modi,
        mode_template=_id_mode,
        mon_template=_id_mon,
        untyped_lift=True,
        normalize_fuel=fuel,
    )


# The continuation (classical realizability) instance.

POLE = e.ComprBase(e.BOT_TYPE, e.BOT_SPEC)


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


def _cont_modi(inst, node, seq, prem):
    """Replay: membership in the biorthogonal from a proof of the body.

    The shape follows the classical-realizability inclusion of a value set
    in its biorthogonal: introduce the continuation, anti-reduce the
    application of the interpreted return, and use the continuation's
    orthogonality against the value itself.
    """
    goal = normalize(node.conclusion.goal)
    assert isinstance(goal, e.After) and isinstance(goal.prog, e.Ret)
    k = node.conclusion.ctxs.kinds
    t = node.conclusion.ctxs.types
    tau = instantiate_type(goal.binder_type, inst)
    p_i = instantiate_prog(goal.prog.inner, inst, k, t)
    body_i = instantiate_spec(goal.body, inst, k, t + (goal.binder_type,))
    cell = e.ComprBase(tau, body_i)
    ret_i = _cont_ret(tau, p_i)
    bi = biorth(tau, cell)
    ortho = orth(tau, cell)

    ctx1 = e.EffContexts(seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types + (e.neg(tau),))
    hyps0 = seq.hyps
    k_hyp = e.SMemBase(e.PVar(0), shift(ortho, PROG))
    hyps1 = tuple(shift(h, PROG) for h in hyps0) + (k_hyp,)

    # membership of the value in the cell, from the premise (weakened
    # under the continuation binder and its orthogonality hypothesis)
    premw = add_hypotheses(weaken_type(prem, len(t), e.neg(tau)), (k_hyp,))
    mem_cell = EffDerivation(
        "Mem0I",
        EffSequent(
            ctx1, hyps1, e.SMemBase(shift(p_i, PROG), shift(cell, PROG))
        ),
        (premw,),
    )

    # unfold the continuation hypothesis and apply it to the value
    ko = EffDerivation("Id", EffSequent(ctx1, hyps1, k_hyp))
    ortho_body = shift(ortho, PROG).body
    unfolded = subst(ortho_body, PROG, 0, e.PVar(0))
    m0e = EffDerivation("Mem0E", EffSequent(ctx1, hyps1, unfolded), (ko,))
    assert isinstance(unfolded, e.SForallProg)
    inst_val = subst(unfolded.body, PROG, 0, shift(p_i, PROG))
    upe = EffDerivation(
        "UniProgE",
        EffSequent(ctx1, hyps1, inst_val),
        (m0e,),
        witness_prog=shift(p_i, PROG),
    )
    assert isinstance(inst_val, e.SImp)
    in_pole = EffDerivation(
        "ImpE", EffSequent(ctx1, hyps1, inst_val.rhs), (upe, mem_cell)
    )

    # anti-reduce (interpreted return applied to the continuation)
    redex = e.App(shift(ret_i, PROG), e.PVar(0))
    reduct = root_step(redex, cbv=False)
    anti = EffDerivation(
        "AntiRed",
        EffSequent(ctx1, hyps1, e.SMemBase(redex, POLE)),
        (in_pole,),
        hole_spec=e.SMemBase(e.PVar(0), POLE),
        hole_type=e.BOT_TYPE,
        prog_before=redex,
        prog_after=reduct,
        steps=1,
        strategy=inst.strategy,
    )
    impi = EffDerivation(
        "ImpI",
        EffSequent(
            ctx1,
            tuple(shift(h, PROG) for h in hyps0),
            e.SImp(k_hyp, e.SMemBase(redex, POLE)),
        ),
        (anti,),
    )
    big_body = bi.body
    upi_goal = subst(big_body, PROG, 0, ret_i)
    upi = EffDerivation("UniProgI", EffSequent(seq.ctxs, hyps0, upi_goal), (impi,))
    return EffDerivation("Mem0I", seq, (upi,))


def _cont_mode(inst, node, seq, prem):
    goal = normalize(node.conclusion.goal)
    assert isinstance(goal, e.After) and isinstance(goal.prog, e.Bind)
    b = goal.prog
    k = node.conclusion.ctxs.kinds
    t = node.conclusion.ctxs.types
    t1 = instantiate_type(b.binder_type, inst)
    t2 = instantiate_type(goal.binder_type, inst)
    p1 = instantiate_prog(b.first, inst, k, t)
    p2 = instantiate_prog(b.rest, inst, k, t + (b.binder_type,))
    body_i = instantiate_spec(goal.body, inst, k, t + (goal.binder_type,))
    bind_i = _cont_bind(t1, t2, p1, p2)
    cell2 = e.ComprBase(t2, body_i)
    inner_after = instantiate_spec(
        e.After(b.rest, goal.binder_type, shift(goal.body, PROG, 1, 1)),
        inst,
        k,
        t + (b.binder_type,),
    )
    cell1 = e.ComprBase(t1, inner_after)

    # k2 binder
    ctx1 = e.EffContexts(seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types + (e.neg(t2),))
    k2_hyp = e.SMemBase(e.PVar(0), shift(orth(t2, cell2), PROG))
    hyps1 = tuple(shift(h, PROG) for h in seq.hyps) + (k2_hyp,)

    # q1 binder on top of k2
    ctx2 = e.EffContexts(ctx1.kinds, ctx1.indices, ctx1.types + (t1,))
    q1_hyp = e.SMemBase(e.PVar(0), shift(cell1, PROG, 2))
    hyps2 = tuple(shift(h, PROG) for h in hyps1) + (q1_hyp,)

    # from q1 in cell1: the inner modality holds of p2[x1:=q1]
    idq = EffDerivation("Id", EffSequent(ctx2, hyps2, q1_hyp))
    inner_at_q1 = subst(shift(inner_after, PROG, 2, 1), PROG, 0, e.PVar(0))
    m0e_q = EffDerivation("Mem0E", EffSequent(ctx2, hyps2, inner_at_q1), (idq,))
    # inner_at_q1 is membership of p2' (with q1 for its variable) in the
    # biorthogonal of cell2; unfold it and instantiate at k2
    assert isinstance(inner_at_q1, e.SMemBase)
    p2q = inner_at_q1.prog
    m0e_bi = EffDerivation(
        "Mem0E",
        EffSequent(
            ctx2,
            hyps2,
            subst(inner_at_q1.fn.body, PROG, 0, p2q),
        ),
        (m0e_q,),
    )
    forall_k = subst(inner_at_q1.fn.body, PROG, 0, p2q)
    assert isinstance(forall_k, e.SForallProg)
    at_k2 = subst(forall_k.body, PROG, 0, e.PVar(1))
    upe_k = EffDerivation(
        "UniProgE", EffSequent(ctx2, hyps2, at_k2), (m0e_bi,), witness_prog=e.PVar(1)
    )
    assert isinstance(at_k2, e.SImp)
    idk2 = EffDerivation("Id", EffSequent(ctx2, hyps2, at_k2.lhs))
    app_pole = EffDerivation(
        "ImpE", EffSequent(ctx2, hyps2, at_k2.rhs), (upe_k, idk2)
    )

    # anti-reduce the lambda applied to q1
    lam = e.Abs(t1, e.App(shift(p2, PROG, 1, 1), e.PVar(1)))
    lam2 = shift(lam, PROG)  # under q1
    redex_q = e.App(lam2, e.PVar(0))
    reduct_q = root_step(redex_q, cbv=False)
    anti_q = EffDerivation(
        "AntiRed",
        EffSequent(ctx2, hyps2, e.SMemBase(redex_q, POLE)),
        (app_pole,),
        hole_spec=e.SMemBase(e.PVar(0), POLE),
        hole_type=e.BOT_TYPE,
        prog_before=redex_q,
        prog_after=reduct_q,
        steps=1,
        strategy=inst.strategy,
    )
    impi_q = EffDerivation(
        "ImpI",
        EffSequent(
            ctx2,
            tuple(shift(h, PROG) for h in hyps1),
            e.SImp(q1_hyp, e.SMemBase(redex_q, POLE)),
        ),
        (anti_q,),
    )
    lam_orth = orth(t1, cell1)
    lam_orth1 = shift(lam_orth, PROG)
    upi_q = EffDerivation(
        "UniProgI",
        EffSequent(ctx1, hyps1, subst(lam_orth1.body, PROG, 0, lam)),
        (impi_q,),
    )
    lam_in_orth = EffDerivation(
        "Mem0I", EffSequent(ctx1, hyps1, e.SMemBase(lam, lam_orth1)), (upi_q,)
    )

    # from the premise: p1 in biorth(cell1); unfold and apply to lam
    premw = add_hypotheses(weaken_type(prem, len(t), e.neg(t2)), (k2_hyp,))
    p1u = shift(p1, PROG)
    bio1 = shift(biorth(t1, cell1), PROG)
    m0e_p1 = EffDerivation(
        "Mem0E",
        EffSequent(ctx1, hyps1, subst(bio1.body, PROG, 0, p1u)),
        (premw,),
    )
    forall_k1 = subst(bio1.body, PROG, 0, p1u)
    assert isinstance(forall_k1, e.SForallProg)
    at_lam = subst(forall_k1.body, PROG, 0, lam)
    upe_lam = EffDerivation(
        "UniProgE", EffSequent(ctx1, hyps1, at_lam), (m0e_p1,), witness_prog=lam
    )
    assert isinstance(at_lam, e.SImp)
    main_pole = EffDerivation(
        "ImpE", EffSequent(ctx1, hyps1, at_lam.rhs), (upe_lam, lam_in_orth)
    )

    # anti-reduce the interpreted bind applied to k2
    redex = e.App(shift(bind_i, PROG), e.PVar(0))
    reduct = root_step(redex, cbv=False)
    anti = EffDerivation(
        "AntiRed",
        EffSequent(ctx1, hyps1, e.SMemBase(redex, POLE)),
        (main_pole,),
        hole_spec=e.SMemBase(e.PVar(0), POLE),
        hole_type=e.BOT_TYPE,
        prog_before=redex,
        prog_after=reduct,
        steps=1,
        strategy=inst.strategy,
    )
    impi = EffDerivation(
        "ImpI",
        EffSequent(
            ctx1,
            tuple(shift(h, PROG) for h in seq.hyps),
            e.SImp(k2_hyp, e.SMemBase(redex, POLE)),
        ),
        (anti,),
    )
    bi2 = biorth(t2, cell2)
    upi = EffDerivation(
        "UniProgI",
        EffSequent(seq.ctxs, seq.hyps, subst(bi2.body, PROG, 0, bind_i)),
        (impi,),
    )
    return EffDerivation("Mem0I", seq, (upi,))


def _cont_mon(inst, node, seq, ent, mod):
    goal = normalize(node.conclusion.goal)
    assert isinstance(goal, e.After)
    k = node.conclusion.ctxs.kinds
    t = node.conclusion.ctxs.types
    tau = instantiate_type(goal.binder_type, inst)
    p_i = instantiate_prog(goal.prog, inst, k, t)
    mod_goal = normalize(node.premises[1].conclusion.goal)
    assert isinstance(mod_goal, e.After)
    phi1_i = instantiate_spec(mod_goal.body, inst, k, t + (mod_goal.binder_type,))
    phi2_i = instantiate_spec(goal.body, inst, k, t + (goal.binder_type,))
    cell1 = e.ComprBase(tau, phi1_i)
    cell2 = e.ComprBase(tau, phi2_i)

    ctx1 = e.EffContexts(seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types + (e.neg(tau),))
    k_hyp = e.SMemBase(e.PVar(0), shift(orth(tau, cell2), PROG))
    hyps1 = tuple(shift(h, PROG) for h in seq.hyps) + (k_hyp,)

    # subset step: k in orth(cell2) entails k in orth(cell1)
    ctx2 = e.EffContexts(ctx1.kinds, ctx1.indices, ctx1.types + (tau,))
    q_hyp = e.SMemBase(e.PVar(0), shift(cell1, PROG, 2))
    hyps2 = tuple(shift(h, PROG) for h in hyps1) + (q_hyp,)
    # phi1/phi2 with the innermost variable playing the bound one, under
    # the extra continuation binder
    phi1_q = subst(shift(cell1, PROG, 2).body, PROG, 0, e.PVar(0))
    phi2_q = subst(shift(cell2, PROG, 2).body, PROG, 0, e.PVar(0))

    # phi2 at q, via the entailment premise weakened under the k binder
    entw = add_hypotheses(
        weaken_type(ent, len(t), e.neg(tau)), (shift(k_hyp, PROG),)
    )
    ent_hyps_base = tuple(shift(h, PROG) for h in hyps1)
    impi_ent = EffDerivation(
        "ImpI",
        EffSequent(ctx2, ent_hyps_base, e.SImp(phi1_q, phi2_q)),
        (entw,),
    )
    idq = EffDerivation("Id", EffSequent(ctx2, hyps2, q_hyp))
    phi1_at_q = EffDerivation("Mem0E", EffSequent(ctx2, hyps2, phi1_q), (idq,))
    impi_ent2 = add_hypotheses(impi_ent, (q_hyp,))
    phi2_at_q = EffDerivation(
        "ImpE", EffSequent(ctx2, hyps2, phi2_q), (impi_ent2, phi1_at_q)
    )
    q_in_cell2 = EffDerivation(
        "Mem0I",
        EffSequent(ctx2, hyps2, e.SMemBase(e.PVar(0), shift(cell2, PROG, 2))),
        (phi2_at_q,),
    )

    # apply k (orthogonal to cell2) to q
    idk = EffDerivation("Id", EffSequent(ctx2, hyps2, shift(k_hyp, PROG)))
    orth2_body = shift(orth(tau, cell2), PROG, 2).body
    unf_k = subst(orth2_body, PROG, 0, e.PVar(1))
    m0e_k = EffDerivation("Mem0E", EffSequent(ctx2, hyps2, unf_k), (idk,))
    assert isinstance(unf_k, e.SForallProg)
    at_q = subst(unf_k.body, PROG, 0, e.PVar(0))
    upe_q = EffDerivation(
        "UniProgE", EffSequent(ctx2, hyps2, at_q), (m0e_k,), witness_prog=e.PVar(0)
    )
    assert isinstance(at_q, e.SImp)
    kq_pole = EffDerivation(
        "ImpE", EffSequent(ctx2, hyps2, at_q.rhs), (upe_q, q_in_cell2)
    )

    impi_q = EffDerivation(
        "ImpI",
        EffSequent(ctx2, tuple(shift(h, PROG) for h in hyps1),
                   e.SImp(q_hyp, at_q.rhs)),
        (kq_pole,),
    )
    orth1 = shift(orth(tau, cell1), PROG)
    upi_q = EffDerivation(
        "UniProgI",
        EffSequent(ctx1, hyps1, subst(orth1.body, PROG, 0, e.PVar(0))),
        (impi_q,),
    )
    k_in_orth1 = EffDerivation(
        "Mem0I", EffSequent(ctx1, hyps1, e.SMemBase(e.PVar(0), orth1)), (upi_q,)
    )

    # main chain: p in biorth(cell1) applied to k
    modw = add_hypotheses(weaken_type(mod, len(t), e.neg(tau)), (k_hyp,))
    pu = shift(p_i, PROG)
    bio1 = shift(biorth(tau, cell1), PROG)
    m0e_p = EffDerivation(
        "Mem0E",
        EffSequent(ctx1, hyps1, subst(bio1.body, PROG, 0, pu)),
        (modw,),
    )
    fk = subst(bio1.body, PROG, 0, pu)
    assert isinstance(fk, e.SForallProg)
    at_k = subst(fk.body, PROG, 0, e.PVar(0))
    upe_k = EffDerivation(
        "UniProgE", EffSequent(ctx1, hyps1, at_k), (m0e_p,), witness_prog=e.PVar(0)
    )
    assert isinstance(at_k, e.SImp)
    pk_pole = EffDerivation(
        "ImpE", EffSequent(ctx1, hyps1, at_k.rhs), (upe_k, k_in_orth1)
    )

    impi = EffDerivation(
        "ImpI",
        EffSequent(ctx1, tuple(shift(h, PROG) for h in seq.hyps),
                   e.SImp(k_hyp, at_k.rhs)),
        (pk_pole,),
    )
    bi2 = biorth(tau, cell2)
    upi = EffDerivation(
        "UniProgI",
        EffSequent(seq.ctxs, seq.hyps, subst(bi2.body, PROG, 0, p_i)),
        (impi,),
    )
    return EffDerivation("Mem0I", seq, (upi,))


def continuation_instance(fuel: int = 10_000) -> PureInstance:
    return PureInstance(
        name="continuation",
        strategy=Strategy.CBN,
        comp_type=_cont_comp,
        ret_prog=_cont_ret,
        bind_prog=_cont_bind,
        after_spec=_cont_after,
        modi_template=_cont_modi,
        mode_template=_cont_mode,
        mon_template=_cont_mon,
        normalize_fuel=fuel,
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


def _law_modi_case(rng, inst) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    p = random_typed_program(rng, (), (), 3)
    tau = type_of((), (), p)
    body = random_spec(rng, (), (tau,), 2)
    goal = e.After(e.Ret(p), tau, body)
    prem_goal = subst(body, PROG, 0, p)
    hyps = (prem_goal,)
    return EffDerivation(
        "ModI",
        EffSequent(e.EffContexts(), hyps, goal),
        (EffDerivation("Id", EffSequent(e.EffContexts(), hyps, prem_goal)),),
    )


def _law_mode_case(rng, inst) -> EffDerivation:
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
        "ModE",
        EffSequent(e.EffContexts(), hyps, goal),
        (EffDerivation("Id", EffSequent(e.EffContexts(), hyps, prem_goal)),),
    )


def _law_mon_case(rng, inst) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    p = random_typed_program(rng, (), (), 2)
    tau = type_of((), (), p)
    phi1 = random_spec(rng, (), (tau,), 2)
    phi2 = e.SImp(e.BOT_SPEC, phi1)
    mod_goal = e.After(e.Ret(p), tau, phi1)
    hyps = (mod_goal,)
    ctx1 = e.EffContexts(types=(tau,))
    ent_hyps = tuple(shift(h, PROG) for h in hyps) + (phi1,)
    ent = EffDerivation(
        "ImpI",
        EffSequent(ctx1, ent_hyps, phi2),
        (EffDerivation("Id", EffSequent(ctx1, ent_hyps + (e.BOT_SPEC,), phi1)),),
    )
    mod = EffDerivation("Id", EffSequent(e.EffContexts(), hyps, mod_goal))
    return EffDerivation(
        "Mon",
        EffSequent(e.EffContexts(), hyps, e.After(e.Ret(p), tau, phi2)),
        (ent, mod),
    )


def _law_antired_case(rng, inst) -> EffDerivation:
    from .generators import random_spec, random_typed_program

    v = random_typed_program(rng, (), (), 2)
    tau = type_of((), (), v)
    redex = e.Bind(tau, e.Ret(v), e.Ret(e.PVar(0)))
    reduct = e.Ret(v)
    hole = random_spec(rng, (), (e.Comp(tau),), 2)
    goal = subst(hole, PROG, 0, redex)
    prem_goal = subst(hole, PROG, 0, reduct)
    hyps = (prem_goal,)
    return EffDerivation(
        "AntiRed",
        EffSequent(e.EffContexts(), hyps, goal),
        (EffDerivation("Id", EffSequent(e.EffContexts(), hyps, prem_goal)),),
        hole_spec=hole,
        hole_type=e.Comp(tau),
        prog_before=redex,
        prog_after=reduct,
        steps=1,
        strategy=Strategy.BASE,
    )


LAW_CASES = {
    "ModI": _law_modi_case,
    "ModE": _law_mode_case,
    "Mon": _law_mon_case,
    "AntiRed": _law_antired_case,
}


def law_samples(inst: PureInstance, samples_per_law: int = 50, seed: int = 0):
    """The sampled law derivations, as (law, derivation) pairs.

    Each law draws from its own generator, seeded from the law's name and
    ``seed`` only, so the samples are the same in every process.
    """
    for law, case in LAW_CASES.items():
        rng = random.Random(f"{law}:{seed}")
        for _ in range(samples_per_law):
            yield law, case(rng, inst)


def check_instance_laws(
    inst: PureInstance, samples_per_law: int = 50, seed: int = 0
) -> LawReport:
    """Sample-based replay of the modality laws under instantiation."""
    report = LawReport(inst.name)
    for law, d in law_samples(inst, samples_per_law, seed):
        try:
            check(d)
            d2 = instantiate_derivation(d, inst)
            check(d2)
            assert_pure(d2.conclusion.goal)
            report.record(law, True)
        except KernelError as exc:
            report.record(law, False, f"{type(exc).__name__}: {exc}")
    return report
