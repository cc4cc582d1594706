"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Everything is exact replay or seeded property checking; there are
no tolerances to calibrate.
"""

import random
import time
from pathlib import Path

import pytest

from effreal.effhol import (
    Abs,
    App,
    Bind,
    BOT_SPEC,
    Comp,
    ComprBase,
    EffContexts,
    EffDerivation,
    EffSequent,
    PVar,
    Ret,
    SMemBase,
    Strategy,
    TVar,
    TyAbs,
    TyApp,
    check as eff_check,
    step,
    type_of,
)
from effreal.effhol.conversion import normalize_type
from effreal.effhol import PROG, subst
from effreal.errors import KernelError
from effreal.frame import (
    UApp,
    UBind,
    ULam,
    URet,
    UVar,
    ef_law_suite,
    lift_member,
    make_prop,
    untyped_step,
)
from effreal.generators import (
    random_closed_program,
    random_hol_prop,
    random_hol_term,
    random_sort,
)
from effreal.hol import (
    Compr,
    ComprBase as HComprBase,
    FALSUM,
    Forall,
    HolDerivation,
    Imp,
    Mem,
    MemBase,
    STAR,
    Sequent,
    Var,
    check as hol_check,
    sort_of,
)
from effreal.instances import (
    build_callcc,
    check_instance_laws,
    continuation_instance,
    identity_instance,
    instantiate_derivation,
    instantiate_type,
)
from effreal.surface.elaborate import parse_document
from effreal.translation import (
    extract_realizer,
    subst_lemma_term_clauses,
    check_substitution_lemma,
    trtype,
)
from effreal.effhol.forgetful import forget_derivation, forget_sequent, forget_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def hol_corpus():
    return parse_document((CORPUS / "hol_basic.hol").read_text())


@pytest.fixture(scope="module")
def eff_corpus():
    return parse_document((CORPUS / "effhol_basic.eff").read_text())


def test_criterion_1_peirce_callcc_replay(hol_corpus):
    start = time.time()
    cont = continuation_instance()
    callcc = build_callcc()
    got = type_of((), (), callcc)
    want = normalize_type(instantiate_type(trtype((), hol_corpus.props["peirce"]), cont))
    assert got == want
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"type of call/cc equals the translated classical principle ({elapsed:.3f}s)")


def test_criterion_2_extraction_corpus(hol_corpus):
    assert len(hol_corpus.hol_derivations) >= 10
    failures = []
    for name, d in hol_corpus.hol_derivations.items():
        try:
            hol_check(d)
            res = extract_realizer(d)
            seq = res.goal_triple
            goal_t = trtype(d.conclusion.ctx, d.conclusion.goal)
            rt = type_of(seq.ctxs.kinds, seq.ctxs.types, res.realizer)
            assert rt == normalize_type(Comp(goal_t))
        except (KernelError, AssertionError) as exc:
            failures.append((name, str(exc)))
    assert not failures, failures
    _report(
        2,
        f"{len(hol_corpus.hol_derivations)} derivations check and every "
        "realizer types at the computation of its translated goal",
    )


def test_criterion_3_per_rule_realizer_exactness():
    pa, pb = FALSUM, Forall(STAR, MemBase(Var(0)))
    ta, tb = trtype((), pa), trtype((), pb)
    hyps = (Imp(pa, pb), pa)

    # implication elimination: bind x0 <- p0; bind x1 <- p1; x0 x1
    d = HolDerivation(
        "ImpE",
        Sequent((), hyps, pb),
        (
            HolDerivation("Id", Sequent((), hyps, Imp(pa, pb))),
            HolDerivation("Id", Sequent((), hyps, pa)),
        ),
    )
    r = extract_realizer(d).realizer
    p0 = Ret(PVar(1))
    p1 = Ret(PVar(1))  # shifted under the first binder
    assert r == Bind(
        trtype((), Imp(pa, pb)),
        Ret(PVar(1)),
        Bind(ta, p1, App(PVar(1), PVar(0))),
    )

    # implication introduction: ret (\x1. p0)
    d2 = HolDerivation(
        "ImpI",
        Sequent((), (), Imp(pa, pa)),
        (HolDerivation("Id", Sequent((), (pa,), pa)),),
    )
    assert extract_realizer(d2).realizer == Ret(Abs(ta, Ret(PVar(0))))

    # universal elimination: bind x0 <- p0; x0 [<t>]
    t = HComprBase(FALSUM)
    d3 = HolDerivation(
        "UniE",
        Sequent((), (pb,), MemBase(t)),
        (HolDerivation("Id", Sequent((), (pb,), pb)),),
        witness=t,
    )
    from effreal.translation import tretype

    assert extract_realizer(d3).realizer == Bind(
        tb, Ret(PVar(0)), TyApp(PVar(0), tretype((), t))
    )

    # universal introduction: ret (/\X. p0)
    d4 = HolDerivation(
        "UniI",
        Sequent((), (), Forall(STAR, Imp(MemBase(Var(0)), MemBase(Var(0))))),
        (
            HolDerivation(
                "ImpI",
                Sequent((STAR,), (), Imp(MemBase(Var(0)), MemBase(Var(0)))),
                (HolDerivation("Id", Sequent((STAR,), (MemBase(Var(0)),), MemBase(Var(0)))),),
            ),
        ),
    )
    from effreal.effhol import KSTAR

    assert extract_realizer(d4).realizer == Ret(
        TyAbs(KSTAR, Ret(Abs(TVar(0), Ret(PVar(0)))))
    )
    _report(3, "extracted realizers match the per-rule displays syntactically")


def test_criterion_4_substitution_preservation():
    rng = random.Random(20260808)
    for i in range(1000):
        sctx = tuple(random_sort(rng) for _ in range(rng.randrange(2)))
        t = random_hol_term(rng, sctx, random_sort(rng), rng.randrange(1, 3))
        s = sort_of(sctx, t)
        p = random_hol_prop(rng, sctx + (s,), rng.randrange(1, 4))
        check_substitution_lemma(sctx, p, t)
        tp = random_hol_term(rng, sctx + (s,), random_sort(rng), rng.randrange(1, 3))
        subst_lemma_term_clauses(sctx, tp, t)
    _report(4, "all four substitution equalities hold on 1000 random pairs")


def test_criterion_5_subject_reduction():
    rng = random.Random(555)
    reduced = 0
    for i in range(1000):
        p, t = random_closed_program(rng, size=5)
        q = step(p, Strategy.BASE)
        if q is None:
            continue
        reduced += 1
        assert type_of((), (), q) == normalize_type(t), f"case {i}"
    assert reduced >= 200, "generator produced too few root redexes"
    _report(5, f"subject reduction on 1000 programs ({reduced} with a base-strategy redex)")


def test_criterion_6_instance_validity(eff_corpus, hol_corpus):
    for inst in (identity_instance(), continuation_instance()):
        report = check_instance_laws(inst, samples_per_law=50, seed=0)
        assert report.ok, (inst.name, report.failures[:3])
        for law, (passed, total) in report.results.items():
            assert passed == total == 50, (inst.name, law)
        # every corpus derivation re-checks after instantiation
        for name, d in eff_corpus.eff_derivations.items():
            d2 = instantiate_derivation(d, inst)
            eff_check(d2)
        # extraction-produced derivations re-check too
        for name in ("i-combinator", "k-combinator", "uni-intro"):
            res = extract_realizer(hol_corpus.hol_derivations[name], derive=True)
            eff_check(instantiate_derivation(res.derivation, inst))
    _report(
        6,
        "both instances pass 50 samples per law and the full corpus "
        "re-checks after instantiation",
    )


def test_criterion_7_ef_laws_and_lift_properties():
    doc = parse_document((CORPUS / "ef_samples.ef").read_text())
    samples = tuple(doc.ef_props.values())
    report = ef_law_suite(samples)
    assert report.ok, report.clauses
    assert set(report.clauses) == {
        "reflexivity",
        "transitivity",
        "top",
        "conjunction",
        "universal-implication",
    }

    # lift properties on the samples
    v = ULam(URet(UVar(0)))
    w = ULam(UVar(0))
    computations = [URet(v), URet(w), UApp(ULam(URet(UVar(0))), v)]
    small, big = make_prop(v), make_prop(v, w)
    for p in computations:
        # monotonicity under inclusion
        if lift_member(p, small) is True:
            assert lift_member(p, big) is True
    for val in (v, w):
        # returns of members
        assert lift_member(URet(val), big) is True
    # bind through an explicit intermediate set
    inter = make_prop(v)
    rest = URet(UVar(0))
    assert lift_member(URet(v), inter) is True
    assert lift_member(UBind(URet(v), rest), make_prop(v)) is True
    # closure under anti-reduction
    redex = UApp(ULam(URet(UVar(0))), v)
    assert untyped_step(redex) == URet(v)
    assert lift_member(URet(v), small) is True
    assert lift_member(redex, small) is True
    _report(7, "five frame clauses and the four lift properties hold on the samples")


def _adversarial_hol():
    bot = FALSUM
    yield "claim falsity by identity", HolDerivation("Id", Sequent((), (), bot))
    yield "modus ponens off an unproved implication", HolDerivation(
        "ImpE",
        Sequent((), (), bot),
        (
            HolDerivation("Id", Sequent((), (), Imp(bot, bot))),
            HolDerivation("Id", Sequent((), (), bot)),
        ),
    )
    yield "instantiate an unproved universal", HolDerivation(
        "UniE",
        Sequent((), (), MemBase(HComprBase(bot))),
        (HolDerivation("Id", Sequent((), (), bot)),),
        witness=HComprBase(bot),
    )
    yield "comprehension elimination without the membership", HolDerivation(
        "MemE",
        Sequent((), (), bot),
        (HolDerivation("Id", Sequent((), (), Mem(HComprBase(bot), Compr(STAR, bot)))),),
    )
    yield "discharge the wrong hypothesis", HolDerivation(
        "ImpI",
        Sequent((), (), Imp(Imp(bot, bot), bot)),
        (HolDerivation("Id", Sequent((), (bot,), bot)),),
    )
    yield "base elimination of a non-comprehension", HolDerivation(
        "Mem0E",
        Sequent((STAR,), (MemBase(Var(0)),), bot),
        (HolDerivation("Id", Sequent((STAR,), (MemBase(Var(0)),), MemBase(Var(0)))),),
    )
    yield "universal introduction without shifting", HolDerivation(
        "UniI",
        Sequent((STAR,), (MemBase(Var(0)),), Forall(STAR, MemBase(Var(1)))),
        (
            HolDerivation(
                "Id", Sequent((STAR, STAR), (MemBase(Var(0)),), MemBase(Var(1)))
            ),
        ),
    )


def _adversarial_eff():
    from effreal.effhol import BOT_TYPE, Fun, TOP_SPEC

    tid = Fun(BOT_TYPE, BOT_TYPE)
    ident = Abs(BOT_TYPE, PVar(0))
    empty = EffContexts()
    bot = BOT_SPEC

    def seq(goal, hyps=(), ctxs=empty):
        return EffSequent(ctxs, hyps, goal)

    yield "claim falsity by identity", EffDerivation("Id", seq(bot))
    yield "modality introduction with mismatched premise", EffDerivation(
        "ModI",
        seq(
            __import__("effreal.effhol", fromlist=["After"]).After(
                Ret(ident), tid, SMemBase(PVar(0), ComprBase(tid, bot))
            )
        ),
        (EffDerivation("Id", seq(TOP_SPEC, (TOP_SPEC,))),),
    )
    yield "anti-reduction with a bogus reduction", EffDerivation(
        "AntiRed",
        seq(bot, (subst(SMemBase(PVar(0), ComprBase(tid, bot)), PROG, 0, ident),)),
        (
            EffDerivation(
                "Id",
                seq(
                    subst(SMemBase(PVar(0), ComprBase(tid, bot)), PROG, 0, ident),
                    (subst(SMemBase(PVar(0), ComprBase(tid, bot)), PROG, 0, ident),),
                ),
            ),
        ),
        hole_spec=SMemBase(PVar(0), ComprBase(tid, bot)),
        hole_type=tid,
        prog_before=ident,
        prog_after=Abs(BOT_TYPE, App(Abs(BOT_TYPE, PVar(0)), PVar(0))),
        steps=5,
        strategy=Strategy.BASE,
    )
    yield "program universal eliminated at the wrong type", EffDerivation(
        "UniProgE",
        seq(bot, (SMemBase(PVar(0), ComprBase(tid, bot)),), EffContexts(types=(tid,))),
        (
            EffDerivation(
                "Id",
                seq(
                    __import__("effreal.effhol", fromlist=["SForallProg"]).SForallProg(
                        BOT_TYPE, bot
                    ),
                    (
                        __import__("effreal.effhol", fromlist=["SForallProg"]).SForallProg(
                            BOT_TYPE, bot
                        ),
                    ),
                    EffContexts(types=(tid,)),
                ),
            ),
        ),
        witness=PVar(0),
    )
    yield "modality elimination of a non-nested premise", EffDerivation(
        "ModE",
        seq(
            __import__("effreal.effhol", fromlist=["After"]).After(
                Bind(tid, Ret(ident), Ret(PVar(0))), tid, bot
            ),
            (TOP_SPEC,),
        ),
        (EffDerivation("Id", seq(TOP_SPEC, (TOP_SPEC,))),),
    )
    yield "conversion between non-convertible specifications", EffDerivation(
        "Conv",
        seq(bot, (TOP_SPEC,)),
        (EffDerivation("Id", seq(TOP_SPEC, (TOP_SPEC,))),),
    )


def test_criterion_8_consistency_smoke():
    count = 0
    for name, d in _adversarial_hol():
        with pytest.raises(KernelError) as info:
            hol_check(d)
        assert info.value.path is not None, name
        count += 1
    for name, d in _adversarial_eff():
        with pytest.raises(KernelError) as info:
            eff_check(d)
        assert info.value.path is not None, name
        count += 1
    assert count >= 10
    _report(8, f"{count} adversarial falsity claims rejected with located errors")


def test_criterion_9_forgetful_translation(eff_corpus):
    # every corpus specification forgets to a well-formed proposition
    from effreal.hol import prop_wf

    for name, s in eff_corpus.specs.items():
        prop_wf((), forget_spec(s))
    # every corpus derivation forgets to an accepted derivation
    for name, d in eff_corpus.eff_derivations.items():
        hd = forget_derivation(d)
        hol_check(hd)
        assert hd.conclusion == forget_sequent(d.conclusion)
    # and so do the extraction-produced ones
    res = extract_realizer(
        parse_document((CORPUS / "hol_basic.hol").read_text()).hol_derivations[
            "k-combinator"
        ],
        derive=True,
    )
    hol_check(forget_derivation(res.derivation))
    _report(9, "the forgetful image of the corpus is accepted by the logic checker")
