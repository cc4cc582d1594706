"""The exact rejections of both kernels: error class, message and path.

Covers a wrong premise count under every rule, an unknown rule, every
check of the universal introductions and of the target theory's universal
eliminations, Mon's entailment checks, every check of MemI, MemE, Mem0I
and Mem0E in both kernels, AntiRed's step count and strategy, the
base-kind checks of the typing judgments, and a frame mutation of every
premise of every rule.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from effreal.effhol import (
    Abs,
    After,
    BOT_SPEC,
    BOT_TYPE,
    Bind,
    Comp,
    Compr,
    ComprBase,
    EffContexts,
    EffDerivation,
    EffSequent,
    EVar,
    Fun,
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
    TForall,
    TOP_SPEC,
    TVar,
    check as eff_check,
    index_of,
    index_wf,
    kind_of,
    spec_wf,
    type_of,
)
from effreal.effhol import theory
from effreal.errors import IllTyped, KindMismatch, RuleMismatch, TemplateMissing
from effreal.hol import (
    Compr as HolCompr,
    ComprBase as HolComprBase,
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
)
from effreal.hol import checker as hol_checker
from effreal.instances import continuation_instance, identity_instance, instantiate_derivation
from effreal.surface.elaborate import parse_document
from effreal.translation import extract_realizer
from tests.test_theory import _antired_one_step

HOL_COUNTS = {
    "Id": 0, "ImpI": 1, "ImpE": 2, "UniI": 1, "UniE": 1,
    "MemI": 1, "MemE": 1, "Mem0I": 1, "Mem0E": 1,
}
EFF_COUNTS = {
    "Id": 0, "Conv": 1, "ImpI": 1, "ImpE": 2,
    "UniProgI": 1, "UniProgE": 1, "UniExpI": 1, "UniExpE": 1, "UniTypeI": 1, "UniTypeE": 1,
    "ModI": 1, "ModE": 1, "Mon": 2, "MemI": 1, "MemE": 1, "Mem0I": 1, "Mem0E": 1,
    "AntiRed": 1,
}


def _rejects(run, cls, message, path):
    with pytest.raises(cls) as info:
        run()
    exc = info.value
    assert type(exc) is cls
    assert exc.message == message
    assert exc.path == path
    loc = "/".join(map(str, path)) or "root"
    assert str(exc) == f"[at {loc}] {message}"


# Premise counts and unknown rules.

HOL_A = MemBase(Var(0))
HOL_SEQ = Sequent((STAR,), (HOL_A,), HOL_A)
EFF_SEQ = EffSequent(EffContexts(), (), TOP_SPEC)


def _wrong_counts(table):
    return [(r, k) for r, n in table.items() for k in sorted({n + 1, 0} - {n})]


@pytest.mark.parametrize("rule,got", _wrong_counts(HOL_COUNTS))
def test_hol_wrong_premise_count(rule, got):
    filler = HolDerivation("Id", HOL_SEQ)
    d = HolDerivation(rule, HOL_SEQ, (filler,) * got)
    msg = f"{rule} expects {HOL_COUNTS[rule]} premise(s), got {got}"
    _rejects(lambda: hol_check(d), RuleMismatch, msg, ())


@pytest.mark.parametrize("rule,got", _wrong_counts(EFF_COUNTS))
def test_eff_wrong_premise_count(rule, got):
    filler = EffDerivation("Id", EFF_SEQ)
    d = EffDerivation(rule, EFF_SEQ, (filler,) * got)
    msg = f"{rule} expects {EFF_COUNTS[rule]} premise(s), got {got}"
    _rejects(lambda: eff_check(d), RuleMismatch, msg, ())


def test_hol_unknown_rule_at_root_and_below():
    _rejects(lambda: hol_check(HolDerivation("Cut", HOL_SEQ)), RuleMismatch, "unknown rule 'Cut'", ())
    seq = Sequent((STAR,), (), Imp(HOL_A, HOL_A))
    d = HolDerivation("ImpI", seq, (HolDerivation("Cut", HOL_SEQ),))
    _rejects(lambda: hol_check(d), RuleMismatch, "unknown rule 'Cut'", (0,))


def test_eff_unknown_rule_at_root_and_below():
    _rejects(lambda: eff_check(EffDerivation("Cut", EFF_SEQ)), RuleMismatch, "unknown rule 'Cut'", ())
    d = EffDerivation("Conv", EFF_SEQ, (EffDerivation("Cut", EFF_SEQ),))
    _rejects(lambda: eff_check(d), RuleMismatch, "unknown rule 'Cut'", (0,))


def test_wrong_count_below_the_root():
    d = EffDerivation("Conv", EFF_SEQ, (EffDerivation("Mon", EFF_SEQ, ()),))
    _rejects(lambda: eff_check(d), RuleMismatch, "Mon expects 2 premise(s), got 0", (0,))


# Universal introductions: the goal's shape, then the premise's context,
# hypotheses and goal.

_CELL = ComprBase(BOT_TYPE, BOT_SPEC)


def _uni_cases():
    """(rule, conclusion, correct premise, wrong premise contexts,
    unshifted hypotheses, wrong premise goal, noun) per universal
    introduction of the target theory."""
    # program universal: hypotheses mention program variable 0
    c1 = EffContexts(types=(BOT_TYPE,))
    h1 = SMemBase(PVar(0), _CELL)
    body1 = SMemBase(PVar(1), _CELL)
    yield (
        "UniProgI",
        EffSequent(c1, (h1,), SForallProg(BOT_TYPE, body1)),
        EffSequent(EffContexts(types=(BOT_TYPE, BOT_TYPE)), (body1,), body1),
        c1, (h1,), SMemBase(PVar(0), _CELL), "a program universal",
    )
    # expression universal: hypotheses mention expression variable 0
    c2 = EffContexts(indices=(RefBase(BOT_TYPE),), types=(BOT_TYPE,))
    h2 = SMemBase(PVar(0), EVar(0))
    body2 = SMemBase(PVar(0), EVar(1))
    yield (
        "UniExpI",
        EffSequent(c2, (h2,), SForallExpr(RefBase(BOT_TYPE), body2)),
        EffSequent(
            EffContexts(indices=(RefBase(BOT_TYPE), RefBase(BOT_TYPE)), types=(BOT_TYPE,)),
            (body2,),
            body2,
        ),
        c2, (h2,), SMemBase(PVar(0), EVar(0)), "an expression universal",
    )
    # type universal: hypotheses and context entries mention type variable 0
    c3 = EffContexts(kinds=(KSTAR,), types=(TVar(0),))
    h3 = SMemBase(PVar(0), ComprBase(TVar(0), BOT_SPEC))
    body3 = SMemBase(PVar(0), ComprBase(TVar(1), BOT_SPEC))
    yield (
        "UniTypeI",
        EffSequent(c3, (h3,), SForallType(KSTAR, body3)),
        EffSequent(EffContexts(kinds=(KSTAR, KSTAR), types=(TVar(1),)), (body3,), body3),
        EffContexts(kinds=(KSTAR, KSTAR), types=(TVar(0),)), (h3,),
        SMemBase(PVar(0), ComprBase(TVar(0), BOT_SPEC)), "a type universal",
    )


UNI_CASES = {case[0]: case for case in _uni_cases()}


@pytest.mark.parametrize("rule", sorted(UNI_CASES))
def test_eff_universal_introduction_accepts(rule):
    _, concl, ok, *_ = UNI_CASES[rule]
    d = EffDerivation("Conv", concl, (EffDerivation(rule, concl, (EffDerivation("Id", ok),)),))
    assert eff_check(d) == concl


@pytest.mark.parametrize("rule", sorted(UNI_CASES))
@pytest.mark.parametrize("broken", ["shape", "contexts", "hyps", "goal"])
def test_eff_universal_introduction_rejects(rule, broken):
    _, concl, ok, bad_ctxs, bad_hyps, bad_goal, noun = UNI_CASES[rule]
    if broken == "shape":
        concl = EffSequent(concl.ctxs, concl.hyps, concl.hyps[0])
        prem = ok
        msg = f"{rule}: goal is not {noun}"
    elif broken == "contexts":
        prem = EffSequent(bad_ctxs, ok.hyps, ok.goal)
        msg = f"{rule}: premise contexts differ from the opened frame"
    elif broken == "hyps":
        prem = EffSequent(ok.ctxs, bad_hyps, ok.goal)
        msg = f"{rule}: premise hypotheses differ from the opened frame"
    else:
        prem = EffSequent(ok.ctxs, ok.hyps, bad_goal)
        msg = f"{rule}: premise goal is not the body"
    inner = EffDerivation(rule, concl, (EffDerivation("Id", prem),))
    d = EffDerivation("Conv", concl, (inner,))
    _rejects(lambda: eff_check(d), RuleMismatch, msg, (0,))


@pytest.mark.parametrize("broken", ["shape", "contexts", "hyps", "goal"])
def test_hol_universal_introduction_rejects(broken):
    goal = Forall(STAR, MemBase(Var(0)))
    concl = Sequent((STAR,), (HOL_A,), goal)
    ctx, hyps, pgoal = (STAR, STAR), (MemBase(Var(1)),), MemBase(Var(0))
    if broken == "shape":
        concl = HOL_SEQ
        msg = "UniI: goal is not a universal"
    elif broken == "contexts":
        ctx = (STAR,)
        msg = "UniI: premise context differs from the opened frame"
    elif broken == "hyps":
        hyps = (HOL_A,)
        msg = "UniI: premise hypotheses differ from the opened frame"
    else:
        pgoal = MemBase(Var(1))
        msg = "UniI: premise goal is not the universal body"
    prem = HolDerivation("Id", Sequent(ctx, hyps, pgoal))
    d = HolDerivation("UniI", concl, (prem,))
    _rejects(lambda: hol_check(d), RuleMismatch, msg, ())


# Universal eliminations: the witness, the premise's frame and shape, the
# witness's type, index or kind, and the conclusion.

_UNI_E_CTXS = EffContexts(types=(BOT_TYPE,))
_T_FN = Fun(BOT_TYPE, BOT_TYPE)

# rule: (witness noun, quantifier noun, premise goal, witness,
# conclusion goal, wrong witness, what the witness has, its wrong and
# expected value)
UNI_E_CASES = {
    "UniProgE": (
        "program", "a program universal",
        SForallProg(BOT_TYPE, SMemBase(PVar(0), _CELL)), PVar(0), SMemBase(PVar(0), _CELL),
        Abs(BOT_TYPE, PVar(0)), "type", _T_FN, BOT_TYPE,
    ),
    "UniExpE": (
        "expression", "an expression universal",
        SForallExpr(RefBase(BOT_TYPE), SMemBase(PVar(0), EVar(0))), _CELL,
        SMemBase(PVar(0), _CELL),
        ComprBase(_T_FN, BOT_SPEC), "index", RefBase(_T_FN), RefBase(BOT_TYPE),
    ),
    "UniTypeE": (
        "type", "a type universal",
        SForallType(KSTAR, SForallProg(TVar(0), BOT_SPEC)), BOT_TYPE,
        SForallProg(BOT_TYPE, BOT_SPEC),
        TAbs(KSTAR, TVar(0)), "kind", KCon(KSTAR), KSTAR,
    ),
}


def _uni_e(rule, broken):
    """The rule's elimination under a Conv, broken in one check, with the
    error it must raise (None for ``ok``)."""
    noun, q_noun, forall, w, goal, bad_w, what, got, want = UNI_E_CASES[rule]
    prem = EffSequent(_UNI_E_CTXS, (forall,), forall)
    err = None
    if broken == "witness":
        w, err = None, (RuleMismatch, f"{rule}: missing {noun} witness")
    elif broken == "frame":
        prem, err = EffSequent(_UNI_E_CTXS, (), forall), (
            RuleMismatch, f"{rule}: premise hypotheses differ from conclusion")
    elif broken == "premise":
        prem, err = EffSequent(_UNI_E_CTXS, (forall,), goal), (
            RuleMismatch, f"{rule}: premise is not {q_noun}")
    elif broken == "judgment":
        w, err = bad_w, (IllTyped, f"{rule}: witness has {what} {got!r}, expected {want!r}")
    elif broken == "conclusion":
        goal, err = BOT_SPEC, (RuleMismatch, f"{rule}: conclusion is not the instantiated body")
    concl = EffSequent(_UNI_E_CTXS, (forall,), goal)
    inner = EffDerivation(rule, concl, (EffDerivation("Id", prem),), witness=w)
    return EffDerivation("Conv", concl, (inner,)), err


@pytest.mark.parametrize("rule", sorted(UNI_E_CASES))
@pytest.mark.parametrize("broken", ["ok", "witness", "frame", "premise", "judgment", "conclusion"])
def test_eff_universal_elimination_checks(rule, broken):
    d, err = _uni_e(rule, broken)
    if err is None:
        assert eff_check(d) == d.conclusion
    else:
        _rejects(lambda: eff_check(d), *err, (0,))


# Mon: the modality premise, then the entailment premise's context,
# hypotheses and goal.

_T_ID = Fun(BOT_TYPE, BOT_TYPE)
_P = Ret(Abs(BOT_TYPE, PVar(0)))
_MON_CTXS = EffContexts(types=(BOT_TYPE,))
_MON_HYP = SMemBase(PVar(0), _CELL)
_PHI1 = BOT_SPEC
_PHI2 = SMemBase(PVar(1), _CELL)  # the hypothesis, under the result binder
_MOD = After(_P, _T_ID, _PHI1)


def _mon(ent_ctxs, ent_hyps, ent_goal, mod_goal=_MOD, goal=None):
    goal = After(_P, _T_ID, _PHI2) if goal is None else goal
    concl = EffSequent(_MON_CTXS, (_MON_HYP, _MOD), goal)
    ent = EffDerivation("Id", EffSequent(ent_ctxs, ent_hyps, ent_goal))
    mod = EffDerivation("Id", EffSequent(_MON_CTXS, (_MON_HYP, _MOD), mod_goal))
    return EffDerivation("Conv", concl, (EffDerivation("Mon", concl, (ent, mod)),))


_ENT_CTXS = EffContexts(types=(BOT_TYPE, _T_ID))
_ENT_HYPS = (SMemBase(PVar(1), _CELL), _MOD, _PHI1)

MON_CASES = {
    "accepts": (_mon(_ENT_CTXS, _ENT_HYPS, _PHI2), None),
    "goal": (
        _mon(_ENT_CTXS, _ENT_HYPS, _PHI2, goal=_MON_HYP),
        "Mon: goal is not a modality",
    ),
    "modality": (
        _mon(_ENT_CTXS, _ENT_HYPS, _PHI2, mod_goal=_MON_HYP),
        "Mon: second premise is not a modality",
    ),
    "computation": (
        _mon(_ENT_CTXS, _ENT_HYPS, _PHI2, mod_goal=After(Ret(PVar(0)), BOT_TYPE, _PHI1)),
        "Mon: modality premise runs a different computation",
    ),
    "contexts": (
        _mon(EffContexts(types=(BOT_TYPE, BOT_TYPE)), _ENT_HYPS, _PHI2),
        "Mon: premise contexts differ from the opened frame",
    ),
    "hyps": (
        _mon(_ENT_CTXS, (_MON_HYP, _MOD, _PHI1), _PHI2),
        "Mon: premise hypotheses differ from the opened frame",
    ),
    "entailment goal": (
        _mon(_ENT_CTXS, _ENT_HYPS, _PHI1),
        "Mon: entailment goal is not the modality body",
    ),
}


@pytest.mark.parametrize("case", sorted(MON_CASES))
def test_mon_checks(case):
    d, msg = MON_CASES[case]
    if msg is None:
        assert eff_check(d) == d.conclusion
    else:
        _rejects(lambda: eff_check(d), RuleMismatch, msg, (0,))


# Membership: the goal's shape and the member's sort, type or index, the
# premise's frame and shape, then the substituted body.  Each node is the
# argument premise of an ImpE (path (1,)) whose function premise is ImpI
# over Id: only the root sequent is checked for well-formedness, so the
# node's goal may be ill-sorted.


def _cut(deriv, imp, node):
    c = node.conclusion
    b = c.hyps[0]
    body = deriv("Id", replace(c, hyps=c.hyps + (c.goal,), goal=b))
    fn = deriv("ImpI", replace(c, goal=imp(c.goal, b)), (body,))
    return deriv("ImpE", replace(c, goal=b), (fn, node))


def _mem_cases(seq, wide, contexts_differ, ok, broken):
    """(rule, defect) -> (conclusion, premise, error or None).  ``ok``
    gives each rule's correct goal and premise goal, ``broken`` the
    rule's own defects as (goal, premise, error); the frame defects give
    the premise the wider contexts ``wide`` or no hypotheses."""
    cases = {}
    for rule, (goal, pgoal) in ok.items():
        cases[rule, "ok"] = (goal, seq(pgoal), None)
        cases[rule, "contexts"] = (goal, replace(seq(pgoal), **wide), (
            RuleMismatch, f"{rule}: premise {contexts_differ} from conclusion"))
        cases[rule, "hyps"] = (goal, replace(seq(pgoal), hyps=()), (
            RuleMismatch, f"{rule}: premise hypotheses differ from conclusion"))
    cases.update(broken)
    return {key: (seq(goal), prem, err) for key, (goal, prem, err) in cases.items()}


def _mem_check(check, deriv, imp, key, case):
    concl, prem, err = case
    d = _cut(deriv, imp, deriv(key[0], concl, (deriv("Id", prem),)))
    if err is None:
        assert check(d) == d.conclusion
    else:
        _rejects(lambda: check(d), *err, (1,))


_HOL_M = Mem(Var(0), HolCompr(STAR, HOL_A))  # its body at the element is HOL_A
_HOL_Z = MemBase(HolComprBase(HOL_A))
_PSTAR = Pred(STAR)


def _hol_seq(goal):
    return Sequent((STAR,), (HOL_A, _HOL_M, _HOL_Z), goal)


HOL_MEM_CASES = _mem_cases(
    _hol_seq, {"ctx": (STAR, STAR)}, "context differs",
    {
        "MemI": (_HOL_M, HOL_A), "MemE": (HOL_A, _HOL_M),
        "Mem0I": (_HOL_Z, HOL_A), "Mem0E": (HOL_A, _HOL_Z),
    },
    {
        ("MemI", "shape"): (HOL_A, _hol_seq(HOL_A), (
            RuleMismatch, "MemI: goal is not membership in a comprehension")),
        ("MemI", "sort"): (Mem(Var(0), HolCompr(_PSTAR, HOL_A)), _hol_seq(HOL_A), (
            IllTyped, f"MemI: element has sort {STAR!r}, expected {_PSTAR!r}")),
        ("MemI", "premise"): (_HOL_M, _hol_seq(_HOL_Z), (
            RuleMismatch, "MemI: premise is not the substituted body")),
        ("MemE", "premise"): (HOL_A, _hol_seq(HOL_A), (
            RuleMismatch, "MemE: premise is not membership in a comprehension")),
        ("MemE", "conclusion"): (_HOL_Z, _hol_seq(_HOL_M), (
            RuleMismatch, "MemE: conclusion is not the substituted body")),
        ("Mem0I", "shape"): (HOL_A, _hol_seq(HOL_A), (
            RuleMismatch, "Mem0I: goal is not base membership of a base comprehension")),
        ("Mem0I", "premise"): (_HOL_Z, _hol_seq(_HOL_M), (
            RuleMismatch, "Mem0I: premise is not the comprehension body")),
        ("Mem0E", "premise"): (HOL_A, _hol_seq(HOL_A), (
            RuleMismatch, "Mem0E: premise is not base membership of a base comprehension")),
        ("Mem0E", "conclusion"): (_HOL_M, _hol_seq(_HOL_Z), (
            RuleMismatch, "Mem0E: conclusion is not the comprehension body")),
    },
)


@pytest.mark.parametrize("key", sorted(HOL_MEM_CASES), ids=" ".join)
def test_hol_membership_checks(key):
    _mem_check(hol_check, HolDerivation, Imp, key, HOL_MEM_CASES[key])


_MEM_A = SMemBase(PVar(0), _CELL)  # itself a Mem0I goal, whose body is BOT_SPEC


def _mem_in(binder_type, binder_index):
    """Program variable 0 in a comprehension at ``_CELL``; its body there
    is ``_MEM_A``."""
    return SMem(PVar(0), Compr(binder_type, binder_index, SMemBase(PVar(0), EVar(0))), _CELL)


_MEM_M = _mem_in(BOT_TYPE, RefBase(BOT_TYPE))
_MEM_Z = SMemBase(PVar(0), ComprBase(BOT_TYPE, _MEM_A))


def _eff_seq(goal):
    return EffSequent(EffContexts(types=(BOT_TYPE,)), (_MEM_A, _MEM_M, _MEM_Z), goal)


EFF_MEM_CASES = _mem_cases(
    _eff_seq, {"ctxs": EffContexts(types=(BOT_TYPE, BOT_TYPE))}, "contexts differ",
    {
        "MemI": (_MEM_M, _MEM_A), "MemE": (_MEM_A, _MEM_M),
        "Mem0I": (_MEM_Z, _MEM_A), "Mem0E": (_MEM_A, _MEM_Z),
    },
    {
        ("MemI", "shape"): (_MEM_A, _eff_seq(_MEM_A), (
            RuleMismatch, "MemI: goal is not membership in a comprehension")),
        ("MemI", "type"): (_mem_in(_T_FN, RefBase(BOT_TYPE)), _eff_seq(_MEM_A), (
            IllTyped, f"MemI: member has type {BOT_TYPE!r}, expected {_T_FN!r}")),
        ("MemI", "index"): (_mem_in(BOT_TYPE, RefBase(_T_FN)), _eff_seq(_MEM_A), (
            IllTyped,
            f"MemI: argument has index {RefBase(BOT_TYPE)!r}, expected {RefBase(_T_FN)!r}")),
        ("MemI", "premise"): (_MEM_M, _eff_seq(_MEM_Z), (
            RuleMismatch, "MemI: premise is not the substituted body")),
        ("MemE", "premise"): (_MEM_A, _eff_seq(_MEM_A), (
            RuleMismatch, "MemE: premise is not membership in a comprehension")),
        ("MemE", "conclusion"): (_MEM_Z, _eff_seq(_MEM_M), (
            RuleMismatch, "MemE: conclusion is not the substituted body")),
        ("Mem0I", "shape"): (_MEM_M, _eff_seq(_MEM_A), (
            RuleMismatch, "Mem0I: goal is not base membership in a comprehension")),
        ("Mem0I", "type"): (SMemBase(PVar(0), ComprBase(_T_FN, _MEM_A)), _eff_seq(_MEM_A), (
            IllTyped, f"Mem0I: member has type {BOT_TYPE!r}, expected {_T_FN!r}")),
        ("Mem0I", "premise"): (_MEM_Z, _eff_seq(_MEM_M), (
            RuleMismatch, "Mem0I: premise is not the substituted body")),
        ("Mem0E", "premise"): (_MEM_A, _eff_seq(_MEM_M), (
            RuleMismatch, "Mem0E: premise is not base membership in a comprehension")),
        ("Mem0E", "conclusion"): (_MEM_M, _eff_seq(_MEM_Z), (
            RuleMismatch, "Mem0E: conclusion is not the substituted body")),
    },
)


@pytest.mark.parametrize("key", sorted(EFF_MEM_CASES), ids=" ".join)
def test_eff_membership_checks(key):
    _mem_check(eff_check, EffDerivation, SImp, key, EFF_MEM_CASES[key])


# The base-kind checks of the typing judgments.

_F = TAbs(KSTAR, TVar(0))  # has kind (* => *)
_PATH = (2, 0, 1)

BASE_KIND_CASES = {
    "tabs body": (
        lambda: kind_of((), TAbs(KSTAR, _F), _PATH),
        "abstraction body has kind (* => *), expected *",
    ),
    "fun domain": (
        lambda: kind_of((), Fun(_F, BOT_TYPE), _PATH),
        "function component has kind (* => *), expected *",
    ),
    "fun codomain": (
        lambda: kind_of((), Fun(BOT_TYPE, _F), _PATH),
        "function component has kind (* => *), expected *",
    ),
    "forall body": (
        lambda: kind_of((), TForall(KSTAR, _F), _PATH),
        "universal body has kind (* => *), expected *",
    ),
    "comp argument": (
        lambda: kind_of((), Comp(_F), _PATH),
        "computation argument has kind (* => *), expected *",
    ),
    "ref0 carrier": (
        lambda: index_wf((), RefBase(_F), _PATH),
        "refinement carrier has kind (* => *), expected *",
    ),
    "ref carrier": (
        lambda: index_wf((), Ref(_F, RefBase(BOT_TYPE)), _PATH),
        "refinement carrier has kind (* => *), expected *",
    ),
    "lam annotation": (
        lambda: type_of((), (), Abs(_F, PVar(0)), _PATH),
        "abstraction annotation has kind (* => *), expected *",
    ),
    "bind annotation": (
        lambda: type_of((), (), Bind(_F, PVar(0), PVar(0)), _PATH),
        "bind annotation has kind (* => *), expected *",
    ),
    "compr carrier": (
        lambda: index_of((), (), (), Compr(_F, RefBase(BOT_TYPE), BOT_SPEC), _PATH),
        "comprehension carrier has kind (* => *), expected *",
    ),
    "compr0 carrier": (
        lambda: index_of((), (), (), ComprBase(_F, BOT_SPEC), _PATH),
        "comprehension carrier has kind (* => *), expected *",
    ),
    "allp annotation": (
        lambda: spec_wf((), (), (), SForallProg(_F, BOT_SPEC), _PATH),
        "quantifier annotation has kind (* => *), expected *",
    ),
}


@pytest.mark.parametrize("case", sorted(BASE_KIND_CASES))
def test_base_kind_checks(case):
    run, msg = BASE_KIND_CASES[case]
    _rejects(run, KindMismatch, msg, _PATH)


def test_base_kind_check_through_the_checker():
    goal = SForallProg(_F, BOT_SPEC)
    d = EffDerivation("Id", EffSequent(EffContexts(), (goal,), goal))
    _rejects(
        lambda: eff_check(d), KindMismatch, "quantifier annotation has kind (* => *), expected *", ()
    )



# AntiRed's step count and strategy, built through the API: anything but a
# non-negative int and a ``Strategy``, as the readers' STEPS and STRATEGY
# literals require, is one located rejection, not a TypeError or a
# ValueError from the reduction.
@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", None), ("steps", "1"), ("steps", 1.5), ("steps", -1), ("steps", True),
        ("strategy", "bogus"), ("strategy", None), ("strategy", "base"),
    ],
)
def test_antired_rejects_a_bad_step_count_or_strategy(field, value):
    d = replace(_antired_one_step(1), **{field: value})
    msg = f"AntiRed: bad step count {d.steps!r} or strategy {d.strategy!r}"
    _rejects(lambda: eff_check(d), RuleMismatch, msg, ())
    below = EffDerivation("Conv", d.conclusion, (d,))
    _rejects(lambda: eff_check(below), RuleMismatch, msg, (0,))


# Frame mutations: every node with premises, from the corpus derivations,
# their replays and the replays' identity and continuation instances, with
# one premise given an extra context entry or a fresh hypothesis, is
# rejected by its own rule at the node.

_CORPUS = Path(__file__).resolve().parent.parent / "corpus"
_HOL_FRESH = Forall(Pred(Pred(STAR)), MemBase(HolComprBase(HOL_A)))
_EFF_FRESH = SForallType(KCon(KCon(KSTAR)), TOP_SPEC)


def _sweep_roots():
    """(kernel, derivation) for every derivation the sweep takes nodes from."""
    hol = parse_document((_CORPUS / "hol_basic.hol").read_text()).hol_derivations
    eff = parse_document((_CORPUS / "effhol_basic.eff").read_text()).eff_derivations
    yield from (("hol", d) for _, d in sorted(hol.items()))
    yield from (("eff", d) for _, d in sorted(eff.items()))
    for _, d in sorted(hol.items()):
        try:
            replay = extract_realizer(d, derive=True).derivation
        except TemplateMissing:
            continue
        yield "eff", replay
        for inst in (identity_instance(), continuation_instance()):
            yield "eff", instantiate_derivation(replay, inst)


def _frame_mutants(kernel, p):
    """Premise ``p`` with an extra context entry, then with a fresh hypothesis."""
    c = p.conclusion
    if kernel == "hol":
        assert _HOL_FRESH not in c.hyps
        return replace(c, ctx=c.ctx + (STAR,)), replace(c, hyps=c.hyps + (_HOL_FRESH,))
    assert _EFF_FRESH not in c.hyps
    wider = replace(c.ctxs, types=c.ctxs.types + (BOT_TYPE,))
    return replace(c, ctxs=wider), replace(c, hyps=c.hyps + (_EFF_FRESH,))


def test_every_premise_frame_mutation_is_rejected_at_its_node():
    # the node's own check, without the root's well-formedness check
    checks = {"hol": lambda d: hol_checker._check(d, ()), "eff": lambda d: theory._check(d, (), {})}
    seen = set()
    for kernel, root in _sweep_roots():
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            for i, p in enumerate(node.premises):
                for mutated in _frame_mutants(kernel, p):
                    prems = node.premises[:i] + (replace(p, conclusion=mutated),) + node.premises[i + 1:]
                    with pytest.raises(RuleMismatch) as info:
                        checks[kernel](replace(node, premises=prems))
                    assert info.value.path == ()
                    assert info.value.message.startswith(f"{node.rule}:"), info.value.message
                    seen.add((kernel, node.rule))
    want = {("hol", r) for r, n in HOL_COUNTS.items() if n} | {("eff", r) for r, n in EFF_COUNTS.items() if n}
    assert seen == want
