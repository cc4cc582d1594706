"""The structure-erasing translation back into the logic."""

import random

from hypothesis import given, settings, strategies as st

from effreal.effhol import (
    After,
    BOT_SPEC,
    BOT_TYPE,
    ComprBase,
    EffContexts,
    EffDerivation,
    EffSequent,
    KSTAR,
    PVar,
    RefBase,
    Ret,
    SForallProg,
    SForallType,
    SMemBase,
    TVar,
    TOP_SPEC,
    check as eff_check,
    forget,
    forget_derivation,
)
from effreal.effhol.forgetful import _FORGET
from effreal.frame import _ERASE
from effreal.generators import random_hol_prop, random_sort
from effreal.hol import FALSUM, Pred, STAR, check as hol_check, prop_wf
from effreal.surface.grammar import EXPRS, INDICES, PROGRAMS, SPECS
from effreal.translation import extract_realizer, translate_prop
from tests.test_translation import k_combinator_derivation


def _classes(*categories):
    """The concrete node classes of ``categories``: tags and variables."""
    return {c for cat in categories for c in (*cat.tags.values(), cat.var) if c is not None}


def test_erasure_tables_cover_their_categories():
    """Each erasure's class table has an entry for exactly the node classes
    of its source categories, so no class is left out of it."""
    assert set(_FORGET) == _classes(INDICES, EXPRS, SPECS)
    assert set(_ERASE) == _classes(PROGRAMS)


def test_forget_index_rows():
    assert forget(RefBase(BOT_TYPE)) == STAR
    from effreal.effhol import Ref

    assert forget(Ref(BOT_TYPE, RefBase(BOT_TYPE))) == Pred(STAR)
    from effreal.effhol import IForall

    assert forget(IForall(KSTAR, RefBase(TVar(0)))) == STAR


def test_forget_quantifiers_vanish():
    assert forget(SForallType(KSTAR, BOT_SPEC)) == forget(BOT_SPEC)
    assert forget(SForallProg(BOT_TYPE, BOT_SPEC)) == forget(BOT_SPEC)


def test_forget_bot_spec_is_falsum():
    assert forget(BOT_SPEC) == FALSUM


def test_forget_after_vanishes():
    f = After(Ret(PVar(0)), BOT_TYPE, BOT_SPEC)
    assert forget(f) == FALSUM


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 3))
def test_translated_props_forget_to_wf(seed, size):
    """Round trip: the forgetful image of a translated spec is the
    proposition itself, in the sort context itself, and well-formed."""
    rng = random.Random(seed)
    sctx = tuple(random_sort(rng) for _ in range(rng.randrange(3)))
    p = random_hol_prop(rng, sctx, size)
    prop_wf(sctx, p)
    out = translate_prop(sctx, p)
    hol_ctx = tuple(forget(s) for s in out.index_ctx)
    assert forget(out.spec) is p
    assert hol_ctx == sctx
    prop_wf(hol_ctx, forget(out.spec))


def test_forget_extraction_derivations_recheck():
    """Soundness derivations map to accepted logic derivations."""

    res = extract_realizer(k_combinator_derivation(), derive=True)
    eff_check(res.derivation)
    hd = forget_derivation(res.derivation)
    hol_check(hd)
    # the image proves the original theorem (modality and binders erased)
    assert hd.conclusion.goal == k_combinator_derivation().conclusion.goal


def test_forget_modality_rules_collapse():
    """A ModI node's image is its premise's image."""
    cell = ComprBase(BOT_TYPE, TOP_SPEC)
    phi = SMemBase(PVar(0), cell)
    ident = PVar(0)
    from effreal.effhol import PROG, subst

    prem_goal = subst(phi, PROG, 0, ident)
    ctxs = EffContexts(types=(BOT_TYPE,))
    hyps = (prem_goal,)
    d = EffDerivation(
        "ModI",
        EffSequent(ctxs, hyps, After(Ret(ident), BOT_TYPE, phi)),
        (EffDerivation("Id", EffSequent(ctxs, hyps, prem_goal)),),
    )
    eff_check(d)
    hd = forget_derivation(d)
    assert hd.rule == "Id"
    hol_check(hd)
