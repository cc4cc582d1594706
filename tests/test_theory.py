"""Deductive theory checking: rule shapes, modality rules and anti-reduction."""

import pytest

from effreal.effhol import (
    Abs,
    After,
    App,
    Bind,
    BOT_SPEC,
    BOT_TYPE,
    ComprBase,
    EffContexts,
    EffDerivation,
    EffSequent,
    Fun,
    PVar,
    Ret,
    SImp,
    SMemBase,
    Strategy,
    TOP_SPEC,
    check,
    sequent_wf,
)
from effreal.effhol import PROG, shift, subst
from effreal.errors import IllTyped, KernelError, ReductionMismatch, RuleMismatch, SpecIllFormed

EMPTY = EffContexts()
IDENT = Abs(BOT_TYPE, PVar(0))
T_ID = Fun(BOT_TYPE, BOT_TYPE)


def seq(goal, hyps=(), ctxs=EMPTY):
    return EffSequent(ctxs, tuple(hyps), goal)


def test_id_and_impi():
    phi = TOP_SPEC
    d = EffDerivation(
        "ImpI", seq(SImp(phi, phi)), (EffDerivation("Id", seq(phi, (phi,))),)
    )
    assert check(d).goal == SImp(phi, phi)


def test_top_spec_derivable():
    # forall x:bot. (x in cell) imp (x in cell)
    body = TOP_SPEC.body
    inner_ctx = EffContexts(types=(BOT_TYPE,))
    idn = EffDerivation("Id", seq(body.lhs, (body.lhs,), inner_ctx))
    impi = EffDerivation("ImpI", seq(body, (), inner_ctx), (idn,))
    upi = EffDerivation("UniProgI", seq(TOP_SPEC), (impi,))
    assert check(upi).goal == TOP_SPEC


def test_modi():
    cell = ComprBase(T_ID, TOP_SPEC)
    phi = SMemBase(PVar(0), cell)  # spec of the bound result variable
    goal = After(Ret(IDENT), T_ID, phi)
    prem_goal = subst(phi, PROG, 0, IDENT)
    hyps = (prem_goal,)
    d = EffDerivation(
        "ModI", seq(goal, hyps), (EffDerivation("Id", seq(prem_goal, hyps)),)
    )
    assert check(d).goal == goal


def test_modi_shape_rejected():
    goal = After(Bind(T_ID, Ret(IDENT), Ret(PVar(0))), T_ID, TOP_SPEC)
    d = EffDerivation("ModI", seq(goal), (EffDerivation("Id", seq(TOP_SPEC, (TOP_SPEC,))),))
    with pytest.raises(RuleMismatch):
        check(d)


def test_mode_collapses_nested_after():
    b = Bind(T_ID, Ret(IDENT), Ret(PVar(0)))
    goal = After(b, T_ID, TOP_SPEC)
    inner = After(Ret(PVar(0)), T_ID, shift(TOP_SPEC, PROG, 1, 1))
    prem_goal = After(Ret(IDENT), T_ID, inner)
    hyps = (prem_goal,)
    d = EffDerivation(
        "ModE", seq(goal, hyps), (EffDerivation("Id", seq(prem_goal, hyps)),)
    )
    assert check(d).goal == goal


def test_mon():
    cell = ComprBase(T_ID, TOP_SPEC)
    phi1 = SMemBase(PVar(0), cell)
    phi2 = SImp(BOT_SPEC, phi1)
    mod_goal = After(Ret(IDENT), T_ID, phi1)
    hyps = (mod_goal,)
    ctx1 = EffContexts(types=(T_ID,))
    ent_hyps = tuple(shift(h, PROG) for h in hyps) + (phi1,)
    ent = EffDerivation(
        "ImpI",
        seq(phi2, ent_hyps, ctx1),
        (EffDerivation("Id", seq(phi1, ent_hyps + (BOT_SPEC,), ctx1)),),
    )
    mod = EffDerivation("Id", seq(mod_goal, hyps))
    d = EffDerivation("Mon", seq(After(Ret(IDENT), T_ID, phi2), hyps), (ent, mod))
    assert check(d).goal == After(Ret(IDENT), T_ID, phi2)


def _antired_one_step(steps):
    """Anti-reduction of a one-step beta redex to IDENT, claiming ``steps`` steps."""
    cell = ComprBase(T_ID, TOP_SPEC)
    redex = App(Abs(T_ID, PVar(0)), IDENT)
    hole = SMemBase(PVar(0), cell)
    goal = subst(hole, PROG, 0, redex)
    prem_goal = subst(hole, PROG, 0, IDENT)
    hyps = (prem_goal,)
    return EffDerivation(
        "AntiRed",
        seq(goal, hyps),
        (EffDerivation("Id", seq(prem_goal, hyps)),),
        hole_spec=hole,
        hole_type=T_ID,
        prog_before=redex,
        prog_after=IDENT,
        steps=steps,
        strategy=Strategy.BASE,
    )


def test_antired():
    d = _antired_one_step(1)
    assert check(d).goal == d.conclusion.goal


def test_antired_step_bound_is_exact():
    with pytest.raises(KernelError):
        check(_antired_one_step(0))


def test_antired_bogus_reduction_rejected():
    cell = ComprBase(T_ID, TOP_SPEC)
    hole = SMemBase(PVar(0), cell)
    # eta-expanded identity at the same type; IDENT does not reduce to it
    other = Abs(BOT_TYPE, App(Abs(BOT_TYPE, PVar(0)), PVar(0)))
    goal = subst(hole, PROG, 0, IDENT)
    with pytest.raises((ReductionMismatch, IllTyped)):
        check(
            EffDerivation(
                "AntiRed",
                seq(goal, (subst(hole, PROG, 0, other),)),
                (
                    EffDerivation(
                        "Id",
                        seq(
                            subst(hole, PROG, 0, other),
                            (subst(hole, PROG, 0, other),),
                        ),
                    ),
                ),
                hole_spec=hole,
                hole_type=T_ID,
                prog_before=IDENT,
                prog_after=other,
                steps=3,
                strategy=Strategy.BASE,
            )
        )


def test_sequent_wf_rejects_an_ill_typed_triple():
    """A triple is a plain sequent whose goal is ``After``: ``sequent_wf``
    types its realizer against the binder type."""
    cell = ComprBase(T_ID, TOP_SPEC)
    phi = SMemBase(PVar(0), cell)
    sequent_wf(seq(After(Ret(IDENT), T_ID, phi)))
    with pytest.raises(SpecIllFormed, match="^modality source has type "):
        sequent_wf(seq(After(Ret(IDENT), BOT_TYPE, phi)))
