"""The realizability translation: the per-construct rows, the
preservation properties, extraction, and triple replay."""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effreal.effhol import (
    Abs,
    After,
    App,
    Bind,
    Comp,
    Compr,
    EApp,
    EForall,
    EVar,
    Fun,
    IForall,
    KCon,
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
    check as eff_check,
    kind_of,
    spec_wf,
    type_of,
)
from effreal.effhol.conversion import normalize_type
from effreal.errors import TemplateMissing
from effreal.generators import random_hol_prop, random_hol_term, random_sort
from effreal.hol import (
    Compr as HCompr,
    ComprBase as HComprBase,
    FALSUM,
    Forall,
    HolDerivation,
    Imp,
    Mem,
    MemBase,
    Pred,
    STAR,
    Sequent,
    Var,
    check as hol_check,
    prop_wf,
    sort_of,
)
from effreal.surface.elaborate import parse_document
from effreal.translation import (
    Ambient,
    check_substitution_lemma,
    extract_realizer,
    lift_contexts,
    subst_lemma_term_clauses,
    translate_prop,
    tretype,
    trind,
    trkind,
    trspec,
    trtrm,
    trtype,
)
from tests.test_pipeline import printed


def test_trkind():
    assert trkind(STAR) == KSTAR
    assert trkind(Pred(STAR)) == KCon(KSTAR)
    assert trkind(Pred(Pred(STAR))) == KCon(KCon(KSTAR))


def test_trind():
    tau = TVar(0)
    assert trind(tau, STAR) == RefBase(tau)
    assert trind(tau, Pred(STAR)) == IForall(
        KSTAR, Ref(TApp(TVar(1), TVar(0)), RefBase(TVar(0)))
    )
    # one more predicate layer: unfold by hand
    nested = trind(tau, Pred(Pred(STAR)))
    assert nested == IForall(
        KCon(KSTAR),
        Ref(
            TApp(TVar(1), TVar(0)),
            IForall(KSTAR, Ref(TApp(TVar(1), TVar(0)), RefBase(TVar(0)))),
        ),
    )


def test_tretype_rows():
    assert tretype((STAR,), Var(0)) == TVar(0)
    compr = HCompr(STAR, MemBase(Var(0)))
    assert tretype((), compr) == TAbs(KSTAR, TVar(0))
    # base comprehension: the body's realizer type, no extra binding
    assert tretype((), HComprBase(FALSUM)) == trtype((), FALSUM)


def test_trtrm_rows():
    assert trtrm((STAR,), Var(0)) == EVar(0)
    compr = HCompr(STAR, MemBase(Var(0)))
    got = trtrm((), compr)
    assert got == EForall(
        KSTAR,
        Compr(TVar(0), RefBase(TVar(0)), SMemBase(PVar(0), EVar(0))),
    )


def test_trtype_rows():
    p1, p2 = FALSUM, FALSUM
    assert trtype((), Imp(p1, p2)) == Fun(trtype((), p1), Comp(trtype((), p2)))
    assert trtype((), Forall(STAR, MemBase(Var(0)))) == TForall(KSTAR, Comp(TVar(0)))
    el = HComprBase(FALSUM)
    st_ = HCompr(STAR, MemBase(Var(0)))
    assert trtype((), Mem(el, st_)) == TApp(tretype((), st_), tretype((), el))


def test_trspec_imp_row():
    p = Imp(FALSUM, FALSUM)
    s = trspec((), p)
    t1 = trtype((), FALSUM)
    assert s == SForallProg(
        t1,
        SImp(
            trspec((), FALSUM),
            After(App(PVar(1), PVar(0)), t1, trspec((), FALSUM)),
        ),
    )


def test_trspec_forall_row():
    p = Forall(STAR, MemBase(Var(0)))
    s = trspec((), p)
    assert s == SForallType(
        KSTAR,
        SForallExpr(
            RefBase(TVar(0)),
            After(TyApp(PVar(0), TVar(0)), TVar(0), SMemBase(PVar(0), EVar(0))),
        ),
    )


def test_trspec_mem_row():
    el = HComprBase(FALSUM)
    st_ = HCompr(STAR, MemBase(Var(0)))
    s = trspec((), Mem(el, st_))
    assert s == SMem(
        PVar(0), EApp(trtrm((), st_), tretype((), el)), trtrm((), el)
    )


def test_lift_contexts():
    assert lift_contexts(()) == ((), ())
    kinds, indices = lift_contexts((STAR,))
    assert kinds == (KSTAR,) and indices == (RefBase(TVar(0)),)
    kinds2, indices2 = lift_contexts((STAR, Pred(STAR)))
    assert kinds2 == (KSTAR, KCon(KSTAR))
    assert indices2 == (RefBase(TVar(1)), trind(TVar(0), Pred(STAR)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_judgement_preservation(seed, size):
    """trtype kinds at * and trspec is well-formed in the lifted contexts."""
    rng = random.Random(seed)
    sctx = tuple(random_sort(rng) for _ in range(rng.randrange(3)))
    p = random_hol_prop(rng, sctx, size)
    prop_wf(sctx, p)
    out = translate_prop(sctx, p)
    assert kind_of(out.kind_ctx, out.type) == KSTAR
    spec_wf(out.kind_ctx, out.index_ctx, (out.type,), out.spec)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 3))
def test_substitution_preservation(seed, size):
    rng = random.Random(seed)
    sctx = tuple(random_sort(rng) for _ in range(rng.randrange(2)))
    t = random_hol_term(rng, sctx, random_sort(rng), size)
    s = sort_of(sctx, t)
    p = random_hol_prop(rng, sctx + (s,), size)
    check_substitution_lemma(sctx, p, t)
    tp = random_hol_term(rng, sctx + (s,), random_sort(rng), size)
    subst_lemma_term_clauses(sctx, tp, t)


def _id(p, ctx=(), hyps=None):
    hyps = (p,) if hyps is None else hyps
    return HolDerivation("Id", Sequent(ctx, hyps, p))


def k_combinator_derivation(p1=FALSUM, p2=Forall(STAR, MemBase(Var(0)))):
    inner = HolDerivation(
        "ImpI", Sequent((), (p1,), Imp(p2, p1)), (_id(p1, (), (p1, p2)),)
    )
    return HolDerivation("ImpI", Sequent((), (), Imp(p1, Imp(p2, p1))), (inner,))


def test_extract_identity():
    p = FALSUM
    d = HolDerivation("ImpI", Sequent((), (), Imp(p, p)), (_id(p),))
    res = extract_realizer(d)
    t = trtype((), p)
    assert res.realizer == Ret(Abs(t, Ret(PVar(0))))
    assert type_of((), (), res.realizer) == normalize_type(Comp(Fun(t, Comp(t))))


def test_extract_k_combinator():
    d = k_combinator_derivation()
    res = extract_realizer(d)
    t1 = trtype((), FALSUM)
    t2 = trtype((), Forall(STAR, MemBase(Var(0))))
    assert res.realizer == Ret(Abs(t1, Ret(Abs(t2, Ret(PVar(1))))))
    want = Comp(Fun(t1, Comp(Fun(t2, Comp(t1)))))
    assert type_of((), (), res.realizer) == normalize_type(want)


def test_extract_imp_elim_is_bind_bind_apply():
    """bind x0 <- p0; bind x1 <- p1; x0 x1 — syntactically."""
    p, q = FALSUM, Forall(STAR, MemBase(Var(0)))
    hyps = (Imp(p, q), p)
    d = HolDerivation(
        "ImpE",
        Sequent((), hyps, q),
        (_id(Imp(p, q), (), hyps), _id(p, (), hyps)),
    )
    res = extract_realizer(d)
    t_imp = trtype((), Imp(p, q))
    t_p = trtype((), p)
    assert res.realizer == Bind(
        t_imp,
        Ret(PVar(1)),
        Bind(t_p, Ret(PVar(1)), App(PVar(1), PVar(0))),
    )


def test_extract_uni_rules():
    body = MemBase(Var(0))
    allp = Forall(STAR, body)
    t = HComprBase(FALSUM)
    prem = _id(allp)
    d = HolDerivation(
        "UniE", Sequent((), (allp,), MemBase(t)), (prem,), witness=t
    )
    res = extract_realizer(d)
    assert res.realizer == Bind(
        trtype((), allp), Ret(PVar(0)), TyApp(PVar(0), tretype((), t))
    )

    d2 = HolDerivation(
        "UniI",
        Sequent((), (), Forall(STAR, Imp(MemBase(Var(0)), MemBase(Var(0))))),
        (
            HolDerivation(
                "ImpI",
                Sequent((STAR,), (), Imp(MemBase(Var(0)), MemBase(Var(0)))),
                (_id(MemBase(Var(0)), (STAR,)),),
            ),
        ),
    )
    res2 = extract_realizer(d2)
    assert res2.realizer == Ret(TyAbs(KSTAR, Ret(Abs(TVar(0), Ret(PVar(0))))))


def test_extract_mem_rules_keep_realizer():
    psi = MemBase(Var(0))
    compr = HCompr(STAR, psi)
    t = HComprBase(FALSUM)
    inst = MemBase(t)
    hyps = (inst,)
    memi = HolDerivation(
        "MemI", Sequent((), hyps, Mem(t, compr)), (_id(inst, (), hyps),)
    )
    res = extract_realizer(memi)
    assert res.realizer == Ret(PVar(0))
    # and the realizer types at the translated membership type
    goal_t = trtype((), Mem(t, compr))
    assert type_of((), (trtype((), inst),), res.realizer) == normalize_type(Comp(goal_t))


def test_goal_triple_well_formed():
    d = k_combinator_derivation()
    res = extract_realizer(d)
    seq = res.goal_triple
    spec_wf(seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types, seq.goal)


def test_extraction_is_monad_agnostic():
    """Extracted realizers use only the generic program constructs."""
    d = k_combinator_derivation()
    res = extract_realizer(d)

    def scan(p):
        assert isinstance(p, (Ret, Bind, App, TyApp, Abs, TyAbs, PVar))
        match p:
            case Ret(i):
                scan(i)
            case Bind(_, a, b):
                scan(a), scan(b)
            case App(a, b):
                scan(a), scan(b)
            case TyApp(a, _):
                scan(a)
            case Abs(_, b):
                scan(b)
            case TyAbs(_, b):
                scan(b)

    scan(res.realizer)


def test_derive_identity_and_k():
    p = FALSUM
    d = HolDerivation("ImpI", Sequent((), (), Imp(p, p)), (_id(p),))
    res = extract_realizer(d, derive=True)
    assert res.derivation is not None
    eff_check(res.derivation)
    assert res.derivation.conclusion == res.goal_triple

    res2 = extract_realizer(k_combinator_derivation(), derive=True)
    eff_check(res2.derivation)


def test_derive_imp_elim():
    p, q = FALSUM, Forall(STAR, MemBase(Var(0)))
    hyps = (Imp(p, q), p)
    d = HolDerivation(
        "ImpE",
        Sequent((), hyps, q),
        (_id(Imp(p, q), (), hyps), _id(p, (), hyps)),
    )
    res = extract_realizer(d, derive=True)
    eff_check(res.derivation)
    assert res.derivation.conclusion == res.goal_triple


def test_derive_uni_rules():
    body = MemBase(Var(0))
    allp = Forall(STAR, body)
    t = HComprBase(FALSUM)
    d = HolDerivation(
        "UniE", Sequent((), (allp,), MemBase(t)), (_id(allp),), witness=t
    )
    res = extract_realizer(d, derive=True)
    eff_check(res.derivation)

    d2 = HolDerivation(
        "UniI",
        Sequent((), (), Forall(STAR, Imp(MemBase(Var(0)), MemBase(Var(0))))),
        (
            HolDerivation(
                "ImpI",
                Sequent((STAR,), (), Imp(MemBase(Var(0)), MemBase(Var(0)))),
                (_id(MemBase(Var(0)), (STAR,)),),
            ),
        ),
    )
    res2 = extract_realizer(d2, derive=True)
    eff_check(res2.derivation)


def test_derive_fails_gracefully_on_mem():
    psi = MemBase(Var(0))
    compr = HCompr(STAR, psi)
    t = HComprBase(FALSUM)
    inst = MemBase(t)
    memi = HolDerivation(
        "MemI", Sequent((), (inst,), Mem(t, compr)), (_id(inst),)
    )
    with pytest.raises(TemplateMissing):
        extract_realizer(memi, derive=True)
    # extraction without derive still succeeds
    assert extract_realizer(memi).realizer == Ret(PVar(0))


def test_ambient_assumptions():
    """Extraction with an extra axiomatized assumption set."""
    p = FALSUM
    d = HolDerivation("ImpI", Sequent((), (), Imp(p, p)), (_id(p),))
    from effreal.effhol import TOP_SPEC

    amb = Ambient(
        kinds=(KSTAR,),
        types=(Comp(TVar(0)),),
        hyps=(After(PVar(0), TVar(0), TOP_SPEC),),
    )
    res = extract_realizer(d, ambient=amb, derive=True)
    assert res.goal_triple.ctxs.kinds[0] == KSTAR
    eff_check(res.derivation)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_translation_reads_no_sort_context(seed, size):
    """The translation of a proposition or term is one node whatever the
    sort context, which is what makes the proposition alone an exact key
    of a translation's table."""
    rng = random.Random(seed)
    sctx = tuple(random_sort(rng) for _ in range(rng.randrange(3)))
    other = tuple(random_sort(rng) for _ in range(rng.randrange(1, 4))) + sctx
    p = random_hol_prop(rng, sctx, size)
    t = random_hol_term(rng, sctx, random_sort(rng), size)
    assert trtype(sctx, p) is trtype(other, p)
    assert trspec(sctx, p) is trspec(other, p)
    assert trtrm(sctx, t) is trtrm(other, t)
    assert tretype(sctx, t) is tretype(other, t)


ROOT = Path(__file__).resolve().parent.parent


def _replay_sources():
    """Every corpus derivation, and the benchmark's seeded ImpI, UniI and
    cut chains (seeds 1-3, n = 1, 2, 4, 8)."""
    doc = parse_document((ROOT / "corpus" / "hol_basic.hol").read_text(encoding="utf-8"))
    sources = list(doc.hol_derivations.items())
    sys.path.insert(0, str(ROOT / "perfbench"))  # ``inputs`` imports its sibling ``answers``
    try:
        import inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for family, make in inputs.FAMILIES.items():
        for seed in (1, 2, 3):
            for n in (1, 2, 4, 8):
                sources.append((f"{family}-{n}-seed{seed}", make(random.Random(seed), n)))
    return sources


REPLAY_SOURCES = _replay_sources()


def _scrambled(d: HolDerivation, rng: random.Random, root: bool = True) -> HolDerivation:
    """``d`` with the hypothesis list of every node below the root shuffled
    and some of its entries repeated; the source checker compares
    hypotheses as sets, so it accepts the result."""
    c = d.conclusion
    hyps = list(c.hyps)
    if not root:
        hyps += rng.sample(hyps, rng.randint(0, len(hyps)))
        rng.shuffle(hyps)
    prems = tuple(_scrambled(p, rng, False) for p in d.premises)
    return replace(d, conclusion=Sequent(c.ctx, tuple(hyps), c.goal), premises=prems)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REPLAY_SOURCES), st.integers(0, 100_000))
def test_extraction_ignores_how_premises_list_their_hypotheses(source, seed):
    """Extraction reads hypotheses from the root and the antecedents
    discharged on the way down: a scrambled derivation gives the realizer
    and the replay of the original, and the replay checks."""
    _name, d = source
    twisted = _scrambled(d, random.Random(seed))
    hol_check(twisted)
    assert extract_realizer(twisted).realizer is extract_realizer(d).realizer
    try:
        want = extract_realizer(d, derive=True)
    except TemplateMissing:
        return
    got = extract_realizer(twisted, derive=True)
    assert got.realizer is want.realizer
    assert printed(got.derivation) == printed(want.derivation)
    eff_check(got.derivation)
