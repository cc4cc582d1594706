"""Kernel tests for the logic side: sorts, well-formedness, substitution,
and derivation checking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from effreal._astnode import map_children
from effreal.errors import RuleMismatch, SortMismatch, UnboundVariable
from effreal.generators import random_hol_prop, random_hol_term, random_sort
from effreal.hol import (
    FALSUM,
    Compr,
    ComprBase,
    Forall,
    HolDerivation,
    Imp,
    Mem,
    MemBase,
    Pred,
    STAR,
    Sequent,
    TERM,
    Var,
    check,
    prop_wf,
    shift,
    sort_of,
    subst,
)


def test_sort_of_variable_lookup():
    assert sort_of((STAR,), Var(0)) == STAR
    assert sort_of((Pred(STAR), STAR), Var(1)) == Pred(STAR)


def test_sort_of_comprehension():
    assert sort_of((), Compr(STAR, MemBase(Var(0)))) == Pred(STAR)


def test_sort_of_base_comprehension_is_falsum_encoding():
    assert sort_of((), ComprBase(FALSUM)) == STAR


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        sort_of((), Var(0))


def test_prop_wf_falsum():
    prop_wf((), FALSUM)


def test_prop_wf_membership():
    # under a predicate-sorted variable, membership of the falsity constant
    prop_wf((Pred(STAR),), Mem(ComprBase(FALSUM), Var(0)))


def test_prop_wf_sort_mismatch():
    with pytest.raises(SortMismatch):
        prop_wf((STAR,), Mem(Var(0), Var(0)))


def test_subst_base_cases():
    sub = ComprBase(FALSUM)
    assert subst(MemBase(Var(0)), TERM, 0, sub) == MemBase(sub)


def test_subst_shifts_under_binder():
    body = Forall(STAR, Mem(Var(0), Var(1)))
    t = Var(3)
    assert subst(body, TERM, 0, t) == Forall(STAR, Mem(Var(0), shift(t, TERM)))


def check_bounds(x, ns, var_cls) -> int:
    """Recount the loose-variable bound of ``x`` in ``ns`` from scratch
    (``var_cls`` is the variable class of ``ns``), requiring the cached
    bound of every node to agree; returns the bound."""
    bound = 0
    if isinstance(x, var_cls):
        bound = x.index + 1

    def visit(child, under):
        nonlocal bound
        bound = max(bound, check_bounds(child, ns, var_cls) - (under[ns.slot] if under else 0))
        return child

    map_children(x, visit)
    assert x._loose[ns.slot] == bound, x
    return bound


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_subst_roundtrip_fresh_variable(seed, size):
    """Shifting then substituting the new variable 0 away is the identity,
    and the cached loose-variable bounds match a recount."""
    rng = random.Random(seed)
    ctx = tuple(random_sort(rng) for _ in range(rng.randrange(3)))
    p = random_hol_prop(rng, ctx, size)
    s = random_sort(rng)
    lifted = shift(p, TERM)
    t = random_hol_term(rng, ctx, s, 2)
    assert subst(lifted, TERM, 0, t) == p
    for x in (p, lifted, t):
        check_bounds(x, TERM, Var)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_substitution_admissibility(seed, size):
    """If ctx,s |- p wf and ctx |- t : s then ctx |- p[0:=t] wf."""
    rng = random.Random(seed)
    ctx = tuple(random_sort(rng) for _ in range(rng.randrange(3)))
    s = random_sort(rng)
    p = random_hol_prop(rng, ctx + (s,), size)
    t = random_hol_term(rng, ctx, s, 2)
    prop_wf(ctx + (s,), p)
    prop_wf(ctx, subst(p, TERM, 0, t))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_generated_props_are_wf_and_sorts_deterministic(seed, size):
    rng = random.Random(seed)
    ctx = tuple(random_sort(rng) for _ in range(rng.randrange(4)))
    p = random_hol_prop(rng, ctx, size)
    prop_wf(ctx, p)
    s = random_sort(rng)
    t = random_hol_term(rng, ctx, s, size)
    assert sort_of(ctx, t) == s
    # determinism: recomputation agrees
    assert sort_of(ctx, t) == sort_of(ctx, t)


def _id_derivation(p, ctx=(), hyps=None):
    hyps = (p,) if hyps is None else hyps
    return HolDerivation("Id", Sequent(ctx, hyps, p))


def test_id_rule():
    p = FALSUM
    assert check(_id_derivation(p)).goal == p


def test_imp_i_of_id():
    p = FALSUM
    d = HolDerivation("ImpI", Sequent((), (), Imp(p, p)), (_id_derivation(p),))
    assert check(d).goal == Imp(p, p)


def test_imp_e():
    p, q = FALSUM, Imp(FALSUM, FALSUM)
    hyps = (Imp(p, q), p)
    fn = HolDerivation("Id", Sequent((), hyps, Imp(p, q)))
    arg = HolDerivation("Id", Sequent((), hyps, p))
    d = HolDerivation("ImpE", Sequent((), hyps, q), (fn, arg))
    assert check(d).goal == q


def test_uni_i_requires_shifted_hypotheses():
    hyp = MemBase(Var(0))
    goal = Forall(STAR, MemBase(Var(1)))
    prem = HolDerivation(
        "Id", Sequent((STAR, STAR), (MemBase(Var(1)),), MemBase(Var(1)))
    )
    d = HolDerivation("UniI", Sequent((STAR,), (hyp,), goal), (prem,))
    assert check(d).goal == goal

    bad_prem = HolDerivation(
        "Id", Sequent((STAR, STAR), (MemBase(Var(0)),), MemBase(Var(0)))
    )
    bad = HolDerivation("UniI", Sequent((STAR,), (hyp,), goal), (bad_prem,))
    with pytest.raises(RuleMismatch):
        check(bad)


def test_uni_e_with_witness():
    body = MemBase(Var(0))
    allp = Forall(STAR, body)
    t = ComprBase(FALSUM)
    prem = HolDerivation("Id", Sequent((), (allp,), allp))
    d = HolDerivation(
        "UniE", Sequent((), (allp,), MemBase(t)), (prem,), witness=t
    )
    assert check(d).goal == MemBase(t)


def test_mem_rules_roundtrip():
    # psi[u := t]  <->  t in {u:* | psi}
    psi = MemBase(Var(0))
    compr = Compr(STAR, psi)
    t = ComprBase(FALSUM)
    inst = MemBase(t)
    hyps = (inst,)
    prem = HolDerivation("Id", Sequent((), hyps, inst))
    memi = HolDerivation("MemI", Sequent((), hyps, Mem(t, compr)), (prem,))
    assert check(memi).goal == Mem(t, compr)
    meme = HolDerivation("MemE", Sequent((), hyps, inst), (memi,))
    assert check(meme).goal == inst


def test_mem0_rules():
    psi = FALSUM
    hyps = (psi,)
    prem = HolDerivation("Id", Sequent((), hyps, psi))
    m0i = HolDerivation("Mem0I", Sequent((), hyps, MemBase(ComprBase(psi))), (prem,))
    assert check(m0i).goal == MemBase(ComprBase(psi))
    m0e = HolDerivation("Mem0E", Sequent((), hyps, psi), (m0i,))
    assert check(m0e).goal == psi


def test_mem0_e_rejects_non_comprehension():
    hyps = (MemBase(Var(0)),)
    prem = HolDerivation("Id", Sequent((STAR,), hyps, MemBase(Var(0))))
    bad = HolDerivation("Mem0E", Sequent((STAR,), hyps, FALSUM), (prem,))
    with pytest.raises(RuleMismatch):
        check(bad)


def test_weakening_of_contexts():
    """A check that passes under ctx passes with an extra outer sort."""
    p = Forall(STAR, MemBase(Var(0)))
    d = HolDerivation("ImpI", Sequent((), (), Imp(p, p)), (_id_derivation(p),))
    check(d)
    # same derivation one context entry deeper (no shifting needed: the
    # props are closed, and the new entry is outermost)
    d2 = HolDerivation(
        "ImpI", Sequent((STAR,), (), Imp(p, p)), (_id_derivation(p, (STAR,)),)
    )
    check(d2)
