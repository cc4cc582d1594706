"""Pure instances: structural interpretation, law replay, call/cc."""

import ast
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effreal import instances
from effreal.effhol import (
    Abs,
    After,
    App,
    Bind,
    BOT_TYPE,
    Comp,
    ComprBase,
    EffContexts,
    EffDerivation,
    EffSequent,
    Fun,
    KSTAR,
    PVar,
    Ret,
    SMemBase,
    SForallProg,
    SForallType,
    TVar,
    TOP_SPEC,
    TyAbs,
    TyApp,
    check,
    kind_of,
    type_of,
)
from effreal.effhol.conversion import normalize_type
from effreal.effhol.reduction import Strategy, multi_step
from effreal.effhol import PROG, shift, subst
from effreal.errors import RecheckFailed, TemplateMissing
from effreal.generators import (
    random_closed_program,
    random_kind,
    random_spec,
    random_type,
    random_typed_program,
)
from effreal.hol import Forall, Imp, MemBase, STAR, Var
from effreal.instances import (
    LAW_CASES,
    assert_pure,
    biorth,
    build_callcc,
    build_cc,
    build_throw,
    check_instance_laws,
    continuation_instance,
    identity_instance,
    instantiate,
    instantiate_derivation,
    instantiate_prog,
    instantiate_type,
    law_samples,
    orth,
)
from effreal.surface.elaborate import parse_document
from effreal.translation import extract_realizer, trtype
from tests.test_pipeline import printed

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ID_INST = identity_instance()
CONT = continuation_instance()

IDENT = Abs(BOT_TYPE, PVar(0))
T_ID = Fun(BOT_TYPE, BOT_TYPE)


def test_identity_structural():
    assert instantiate_type(Comp(BOT_TYPE), ID_INST) == BOT_TYPE
    assert instantiate_prog(Ret(IDENT), ID_INST) == IDENT
    b = Bind(T_ID, Ret(IDENT), Ret(PVar(0)))
    got = instantiate_prog(b, ID_INST)
    assert got == App(Abs(T_ID, PVar(0)), IDENT)


def test_identity_after_is_substitution():
    cell = ComprBase(T_ID, TOP_SPEC)
    phi = SMemBase(PVar(0), cell)
    spec = After(Ret(IDENT), T_ID, phi)
    assert instantiate(spec, ID_INST) == subst(phi, PROG, 0, IDENT)


def test_instantiate_returns_pure_input_itself():
    """Nothing to interpret under type, program and expression binders:
    the input comes back as the same object."""
    poly = TyApp(TyAbs(KSTAR, Abs(TVar(0), PVar(0))), TVar(0))
    x = SForallType(
        KSTAR,
        SForallProg(TVar(0), SMemBase(App(poly, PVar(0)), ComprBase(TVar(0), TOP_SPEC))),
    )
    for inst in (ID_INST, CONT):
        assert instantiate(x, inst) is x
        assert instantiate(T_ID, inst) is T_ID


def test_file_instance_has_no_modality_templates():
    """The instance file reproduces the continuation instance on every
    construct but carries no derivation templates."""
    doc = parse_document((CORPUS / "instance_cont.inst").read_text())
    (inst,) = doc.instances.values()
    assert not inst.templates
    rng = random.Random(0)
    for law in ("ModI", "ModE", "Mon"):
        d = LAW_CASES[law](rng)
        check(d)
        with pytest.raises(TemplateMissing, match=law):
            instantiate_derivation(d, inst)
    d = LAW_CASES["AntiRed"](rng)
    d2 = instantiate_derivation(d, inst)
    check(d2)
    assert printed(d2) == printed(instantiate_derivation(d, CONT))


_TOP = EffSequent(EffContexts(), (TOP_SPEC,), TOP_SPEC)
_ID = EffDerivation("Id", _TOP)
# Modality nodes that do not check: a goal that is no modality, a ModI or
# ModE goal over the wrong program, a Mon entailment without its modality
# premise, and a Mon whose modality premise has a goal that is no modality.
_RET_AFTER = After(Ret(IDENT), T_ID, TOP_SPEC)
_UNCHECKED = {
    "mon-top-spec": (EffDerivation("Mon", _TOP, (_ID, _ID)), "Mon: goal is not a modality"),
    "mod-e-top-spec": (EffDerivation("ModE", _TOP, (_ID,)), "ModE: goal is not a modality over a bind"),
    "mod-i-top-spec": (EffDerivation("ModI", _TOP, (_ID,)), "ModI: goal is not a modality over a return"),
    "mod-e-over-ret": (
        EffDerivation("ModE", replace(_TOP, goal=_RET_AFTER), (_ID,)),
        "ModE: goal is not a modality over a bind",
    ),
    "mon-one-premise": (
        EffDerivation("Mon", replace(_TOP, goal=_RET_AFTER), (_ID,)),
        "Mon: expected 2 premises, got 1",
    ),
    "mon-premise-top-spec": (
        EffDerivation("Mon", replace(_TOP, goal=_RET_AFTER), (_ID, _ID)),
        "Mon: premise 2's goal is not a modality",
    ),
}


@pytest.mark.parametrize("inst", [ID_INST, CONT], ids=["id", "cont"])
@pytest.mark.parametrize("name", sorted(_UNCHECKED))
def test_instantiating_a_node_that_does_not_check_names_its_rule(inst, name):
    """The templates read a modality node's goals; a node without the
    rule's shapes fails as a kernel error naming the rule."""
    d, msg = _UNCHECKED[name]
    with pytest.raises(RecheckFailed) as info:
        instantiate_derivation(d, inst)
    assert str(info.value) == msg
    with pytest.raises(RecheckFailed):
        instantiate_derivation(EffDerivation("ImpE", _TOP, (_ID, d)), inst)


def test_continuation_ret_bind_shapes():
    # ret p = \k: neg tau. k p
    got = instantiate_prog(Ret(IDENT), CONT)
    assert got == Abs(Fun(T_ID, BOT_TYPE), App(PVar(0), shift(IDENT, PROG)))
    # bind
    b = Bind(T_ID, Ret(IDENT), Ret(PVar(0)))
    got2 = instantiate_prog(b, CONT)
    assert_pure(got2)
    # typing: the interpreted computation has the double-negation type
    t = type_of((), (), got2)
    want = instantiate_type(Comp(T_ID), CONT)
    assert t == normalize_type(want)


def test_instantiated_reduction_preserved():
    """bind-of-ret still reduces to the substituted body, CPS-style."""
    b = Bind(T_ID, Ret(IDENT), Ret(PVar(0)))
    lhs = instantiate_prog(b, CONT)
    rhs = instantiate_prog(Ret(IDENT), CONT)
    # under CBN, applying both to an arbitrary continuation variable yields
    # the same normal form
    k = PVar(0)
    ctx = (Fun(T_ID, BOT_TYPE),)
    n1, _ = multi_step(App(shift(lhs, PROG), k), Strategy.CBN, 100)
    n2, _ = multi_step(App(shift(rhs, PROG), k), Strategy.CBN, 100)
    assert n1 == n2


def test_instantiated_base_axioms_replay():
    """Each base reduction axiom's instantiated sides join under the
    instance strategy (identity instance: directly)."""
    rng = random.Random(7)
    for _ in range(20):
        p, _t = random_closed_program(rng, size=5)
        from effreal.effhol.reduction import step

        q = step(p, Strategy.BASE)
        if q is None:
            continue
        pi = instantiate_prog(p, ID_INST)
        qi = instantiate_prog(q, ID_INST)
        ni, _ = multi_step(pi, Strategy.FULL, 10_000)
        nq, _ = multi_step(qi, Strategy.FULL, 10_000)
        assert ni == nq


def test_purity_scan():
    with pytest.raises(Exception):
        assert_pure(Ret(IDENT))
    assert_pure(instantiate_prog(Ret(IDENT), CONT))


def test_orth_index():
    from effreal.effhol import index_of, RefBase, neg

    cell = ComprBase(T_ID, TOP_SPEC)
    o = orth(T_ID, cell)
    assert index_of((), (), (), o) == RefBase(neg(T_ID))
    b = biorth(T_ID, cell)
    assert index_of((), (), (), b) == RefBase(neg(neg(T_ID)))


def test_identity_law_templates_single_cases():
    rng = random.Random(3)
    for law, case in LAW_CASES.items():
        d = case(rng)
        check(d)
        d2 = instantiate_derivation(d, ID_INST)
        check(d2)


def test_continuation_law_templates_single_cases():
    rng = random.Random(3)
    for law, case in LAW_CASES.items():
        d = case(rng)
        check(d)
        d2 = instantiate_derivation(d, CONT)
        check(d2)


def test_law_samples_do_not_depend_on_hash_seed():
    """Two processes with different string-hash salts draw the same samples."""
    code = (
        "from effreal.instances import law_samples\n"
        "for law, d in law_samples(3, 0):\n"
        "    print(law, d.conclusion)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=salt),
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        for salt in ("1", "2")
    ]
    assert outs[0] and outs[0] == outs[1]


def test_check_instance_laws_small():
    rep = check_instance_laws(ID_INST, samples_per_law=5, seed=11)
    assert rep.ok, rep.failures[:2]
    rep2 = check_instance_laws(CONT, samples_per_law=5, seed=11)
    assert rep2.ok, rep2.failures[:2]


PEIRCE = Forall(
    STAR,
    Forall(
        STAR,
        Imp(
            Imp(Imp(MemBase(Var(1)), MemBase(Var(0))), MemBase(Var(1))),
            MemBase(Var(1)),
        ),
    ),
)


def test_callcc_types_at_translated_peirce():
    callcc = build_callcc()
    t = type_of((), (), callcc)
    want = instantiate_type(trtype((), PEIRCE), CONT)
    assert t == normalize_type(want)


def test_throw_drops_second_continuation():
    """throw k applied to (x, k') reduces to k x."""
    ta, tb = BOT_TYPE, BOT_TYPE
    from effreal.effhol import neg

    # frame: [k, x, k']
    k = PVar(0)
    throw = build_throw(ta, tb, k)
    applied = App(App(throw, PVar(1)), PVar(2))
    ctx = (neg(ta), ta, neg(tb))
    # CBN: two beta steps drop k' and deliver k x
    result, steps = multi_step(applied, Strategy.CBN, 10)
    assert result == App(PVar(0), PVar(1))


def test_cc_machine_rule_simulation():
    """cc applied to (z, k) reduces to z (throw k) k, CPS-style."""
    ta, tb = BOT_TYPE, BOT_TYPE
    from effreal.effhol import neg

    cc = build_cc(ta, tb)
    # frame: [z, k]
    applied = App(App(shift(cc, PROG, 2), PVar(1)), PVar(0))
    result, _ = multi_step(applied, Strategy.CBN, 10)
    throw = build_throw(ta, tb, PVar(0))
    assert result == App(App(PVar(1), throw), PVar(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_unseen_context_entries_change_nothing(seed):
    """Kinding, typing and instantiation return the same node when
    unrelated entries are prepended to the kind and type contexts: they
    read a context only at their argument's loose variables, which is what
    makes the context-suffix keys of their tables exact."""
    rng = random.Random(seed)
    kctx = tuple(random_kind(rng, 1) for _ in range(rng.randrange(3)))
    tctx = tuple(random_type(rng, kctx, KSTAR, 2) for _ in range(rng.randrange(3)))
    big_k = tuple(random_kind(rng, 1) for _ in range(1 + rng.randrange(2))) + kctx
    big_t = tuple(random_type(rng, big_k, KSTAR, 2) for _ in range(1 + rng.randrange(2))) + tctx
    t = random_type(rng, kctx, random_kind(rng, 1), 3)
    p = random_typed_program(rng, kctx, tctx, 5)
    spec = random_spec(rng, kctx, tctx, 3)
    assert kind_of(big_k, t) is kind_of(kctx, t)
    assert type_of(big_k, big_t, p) is type_of(kctx, tctx, p)
    for inst in (ID_INST, CONT):
        for x in (t, p, spec):
            assert instantiate(x, inst, big_k, big_t) is instantiate(x, inst, kctx, tctx)


def _instance_sources():
    """Every replayable corpus ``--derive`` derivation and every
    ``effhol_basic.eff`` derivation."""
    hol = parse_document((CORPUS / "hol_basic.hol").read_text())
    for name, d in hol.hol_derivations.items():
        try:
            yield name, extract_realizer(d, derive=True).derivation
        except TemplateMissing:
            pass
    yield from parse_document((CORPUS / "effhol_basic.eff").read_text()).eff_derivations.items()


def test_shared_tables_agree_with_standalone_instantiation(monkeypatch):
    """``instantiate_derivation`` interprets every formula of a derivation
    through one pair of tables.  Rebuilt with a table of its own for every
    formula it interprets at a node (context entries, hypotheses, goal,
    witnesses and template parts), each id and cont instance is equal node
    for node: every context entry, hypothesis and goal is the node a
    standalone ``instantiate`` returns."""
    shared = {
        (name, inst.name): instantiate_derivation(d, inst)
        for name, d in _instance_sources()
        for inst in (ID_INST, CONT)
    }
    real = instances._instantiate
    depth = 0

    def standalone(x, inst, kctx, tctx, memo):
        # a formula interpreted at a node gets fresh tables; its subterms share them
        nonlocal depth
        depth += 1
        try:
            return real(x, inst, kctx, tctx, memo if depth > 1 else instances._Memo())
        finally:
            depth -= 1

    monkeypatch.setattr(instances, "_instantiate", standalone)
    for name, d in _instance_sources():
        for inst in (ID_INST, CONT):
            got = printed(instantiate_derivation(d, inst))
            assert got == printed(shared[name, inst.name]), (name, inst.name)


def test_cont_templates_use_their_premises_as_proved():
    """The continuation templates cut their premises in instead of
    rebuilding them: at every ModI, ModE and Mon node of the corpus
    derivations, the ``effhol_basic.eff`` derivations and the law samples,
    each instantiated premise occurs, as the same object, inside the
    template's output; and ``instances.py`` imports no weakening."""
    calls = []

    def recording(rule, template):
        def run(inst, parts, seq, *prems):
            out = template(inst, parts, seq, *prems)
            calls.append((rule, prems, out))
            return out

        return run

    cont = replace(CONT, templates={r: recording(r, t) for r, t in CONT.templates.items()})
    laws = law_samples(samples_per_law=20)
    for _name, d in [*_instance_sources(), *laws]:
        instantiate_derivation(d, cont)
    assert {rule for rule, _, _ in calls} == {"ModI", "ModE", "Mon"}
    for rule, prems, out in calls:
        stack, seen = [out], set()
        while stack:
            node = stack.pop()
            seen.add(id(node))
            stack.extend(node.premises)
        assert all(id(p) in seen for p in prems), rule
    tree = ast.parse(Path(instances.__file__).read_text(encoding="utf-8"))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not {m for m in modules if m and "weakening" in m}
