"""Robustness: source-context weakening, and checker behavior under
mutation, malformed input and deep nesting."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from effreal.errors import KernelError, RuleMismatch, SurfaceSyntaxError
from effreal.hol import (
    FALSUM,
    HolDerivation,
    Imp,
    STAR,
    Sequent,
    check as hol_check,
)
from effreal.effhol import (
    BOT_TYPE,
    EffContexts,
    EffDerivation,
    EffSequent,
    SImp,
    TOP_SPEC,
    check as eff_check,
)
from effreal.surface import jsonio, print_hol_derivation
from effreal.surface.elaborate import SurfaceDoc, elab_derivation, parse_document
from effreal.surface.grammar import EFF, HOL
from effreal.surface.sexp import parse_all
from effreal.translation import extract_realizer

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _prepend_sort(d: HolDerivation) -> HolDerivation:
    """Insert a fresh outermost context entry everywhere; outermost
    insertion leaves de Bruijn indices untouched."""
    seq = Sequent((STAR,) + d.conclusion.ctx, d.conclusion.hyps, d.conclusion.goal)
    return HolDerivation(
        d.rule, seq, tuple(_prepend_sort(p) for p in d.premises), witness=d.witness
    )


def test_hol_weakening_on_corpus():
    doc = parse_document((CORPUS / "hol_basic.hol").read_text())
    for name, d in doc.hol_derivations.items():
        hol_check(d)
        hol_check(_prepend_sort(d))


def _nodes(d):
    yield d
    for p in d.premises:
        yield from _nodes(p)


def test_checker_rejects_goal_mutations_cleanly():
    """Swapping a node's goal for an arbitrary well-formed spec either
    leaves a valid proof (never silently) or raises a located kernel
    error — no other exception type escapes."""
    doc = parse_document((CORPUS / "hol_basic.hol").read_text())
    res = extract_realizer(doc.hol_derivations["b-combinator"], derive=True)
    d = res.derivation
    rng = random.Random(4)
    nodes = list(_nodes(d))
    mutated_accepts = 0
    for _ in range(40):
        target = rng.randrange(len(nodes))

        def rebuild(node, depth=0):
            nonlocal counter
            counter += 1
            if counter - 1 == target:
                return replace(
                    node,
                    conclusion=replace(node.conclusion, goal=TOP_SPEC),
                )
            return replace(
                node, premises=tuple(rebuild(p) for p in node.premises)
            )

        counter = 0
        bad = rebuild(d)
        try:
            eff_check(bad)
            mutated_accepts += 1
        except KernelError as exc:
            assert exc.path is not None
    # replacing a goal with an unrelated tautology must never go unnoticed
    assert mutated_accepts == 0


@pytest.mark.parametrize("rule", [["Id"], {"Id": 0}, None, 0])
def test_rule_names_of_any_type_are_rejected(rule):
    """A derivation built through the API with a rule that is not a
    string, hashable or not, gets the unknown-rule error."""
    hol = HolDerivation(rule, Sequent((), (), Imp(FALSUM, FALSUM)))
    eff = EffDerivation(rule, EffSequent(EffContexts(), (), TOP_SPEC))
    for check, d in ((hol_check, hol), (eff_check, eff)):
        with pytest.raises(RuleMismatch) as info:
            check(d)
        assert str(info.value) == f"[at root] unknown rule {rule!r}"


def _cli(*argv):
    """Run the command line in a fresh process: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, (str(CORPUS.parent / "src"), os.environ.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-m", "effreal.surface.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return r.returncode, r.stdout, r.stderr


@pytest.mark.parametrize(
    "command, text",
    [
        ("check-hol", "(prop p (imp bot))"),
        ("check-hol", "(prop q (member0))"),
        ("check-hol", "(prop p)"),
        ("check-hol", "(prop p (imp bot bot bot))"),
        ("check-hol", "(hol-derivation d (id (sequent () (hyps) bot) bot))"),
        ("check-effhol", "(type t (M))"),
        ("check-effhol", "(program p (lam (x) x))"),
        ("check-effhol", "(eff-derivation d (id (sequent (kinds) (types) (hyps) top-spec)))"),
        ("check-effhol", "(instance i (strategy base) (comp))"),
        ("check-effhol", "(instance i (strategy fast) (comp (T) T))"),
    ],
)
def test_surface_arity_is_a_located_error(tmp_path, command, text):
    """A form with fewer or more arguments than its layout is a syntax
    error with a position, never a traceback or a silent acceptance."""
    f = tmp_path / "bad.txt"
    f.write_text(text)
    code, _, err = _cli(command, str(f))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("1:")


@pytest.mark.parametrize("argv", [("check-hol",), ("translate", "--prop", "p")])
def test_deep_nesting_keeps_the_exit_code_contract(tmp_path, argv):
    f = tmp_path / "deep.hol"
    f.write_text("(prop p " + "(imp bot " * 3000 + "bot" + ")" * 3000 + ")")
    code, _, err = _cli(argv[0], str(f), *argv[1:])
    assert (code, err) == (1, "input is nested too deeply\n")


def _bad_witness(node):
    """``node`` with its first witness, in premise order, made a list."""
    if node["witnesses"]:
        key = next(iter(node["witnesses"]))
        return {**node, "witnesses": {**node["witnesses"], key: []}}
    for i, p in enumerate(node["premises"]):
        q = _bad_witness(p)
        if q is not None:
            return {**node, "premises": node["premises"][:i] + [q] + node["premises"][i + 1:]}
    return None


@pytest.mark.parametrize("calculus", ["hol", "effhol"])
def test_json_loading_is_total(calculus):
    """A derivation document of the wrong shape is a syntax error, never a
    KeyError, TypeError or AttributeError."""
    doc = parse_document((CORPUS / "hol_basic.hol").read_text())
    d = doc.hol_derivations["uni-elim-chain"]
    if calculus == "hol":
        data, load = jsonio.hol_to_json(d), jsonio.hol_from_json
    else:
        data = jsonio.eff_to_json(extract_realizer(d, derive=True).derivation)
        load = jsonio.eff_from_json
    load(data)
    node = data["derivation"]
    bad = [
        {**data, "derivation": {}},
        {k: v for k, v in data.items() if k != "derivation"},
        {**data, "derivation": {k: v for k, v in node.items() if k != "conclusion"}},
        {**data, "derivation": {**node, "conclusion": 3}},
        {**data, "derivation": {**node, "rule": []}},
        {**data, "derivation": {**node, "premises": [3]}},
        {**data, "derivation": _bad_witness(node)},
        {**data, "derivation": [node]},
        [data],
    ]
    for case in bad:
        with pytest.raises(SurfaceSyntaxError):
            load(case)


def test_pure_maps_handle_deep_left_nesting():
    """At the default recursion limit, printing, forgetting and translating
    a 900-deep left-nested implication take one stack frame per level: a
    memo table adds no frame of its own."""
    from effreal.effhol import SImp
    from effreal.effhol.forgetful import forget_spec
    from effreal.surface import print_spec
    from effreal.translation import trspec, trtype

    spec, prop = TOP_SPEC, FALSUM
    for _ in range(900):
        spec, prop = SImp(spec, TOP_SPEC), Imp(prop, FALSUM)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert print_spec(spec, 0, 1).count("(imp ") >= 900
        assert forget_spec(spec) is not None
        assert trtype((STAR,), prop) is not None
        assert trspec((STAR,), prop) is not None
    finally:
        sys.setrecursionlimit(limit)


def _at_limit_1000(run):
    """``run()`` at recursion limit 1000, the interpreter's default."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


def test_cont_instantiation_handles_a_long_chain():
    """The continuation templates cut their premises in instead of
    rebuilding them under the continuation binder, so no walk nests one
    template's rebuild inside another's: the cont instance of the 60-long
    implication chain is built at the default recursion limit."""
    from tests.test_invariants import _imp_chain

    from effreal.instances import continuation_instance, instantiate, instantiate_derivation

    derived = extract_realizer(_imp_chain(60), derive=True).derivation
    cont = continuation_instance()
    d = _at_limit_1000(lambda: instantiate_derivation(derived, cont))
    assert d.conclusion.goal == instantiate(derived.conclusion.goal, cont)


def test_counted_printing_handles_a_deep_goal():
    """The one printing pass takes one frame per formula level, in
    ``_emit``, and walks the derivation from a stack: a sequent and a
    one-node derivation whose hypothesis and goal are a 900-deep
    left-nested implication print at the default recursion limit."""
    from effreal.effhol import SImp
    from effreal.surface import print_eff_sequent

    spec = TOP_SPEC
    for _ in range(900):
        spec = SImp(spec, TOP_SPEC)
    d = EffDerivation("Id", EffSequent(EffContexts(), (spec,), spec))
    text = _at_limit_1000(lambda: print_eff_sequent(d.conclusion))
    assert text.count("(imp ") >= 1800
    data = _at_limit_1000(lambda: jsonio.eff_to_json(d))
    assert data["derivation"]["conclusion"] == text


def test_normalize_handles_deep_left_nesting():
    """``normalize`` takes two stack frames per level: 450-deep
    left-nested implications and function types with a beta-redex at the
    bottom normalize at the default recursion limit."""
    from effreal.effhol import Fun, KSTAR, SForallProg, SImp, TAbs, TApp, TVar
    from effreal.effhol.conversion import normalize

    def chains(bottom):
        spec, ty = SForallProg(bottom, TOP_SPEC), bottom
        for _ in range(450):
            spec, ty = SImp(spec, TOP_SPEC), Fun(ty, BOT_TYPE)
        return spec, ty

    # a fresh variable keeps the chains from meeting normal forms of other tests
    redex = TApp(TAbs(KSTAR, TVar(0)), TVar(975_310))
    spec, ty = chains(redex)
    want = chains(TVar(975_310))
    assert _at_limit_1000(lambda: (normalize(spec), normalize(ty))) == want


def test_typing_tables_and_instantiation_handle_deep_nesting():
    """The typing table's lookup sits inside ``kind_of`` and ``type_of``,
    so neither gains a frame per level; ``instantiate`` keeps its two."""
    from effreal.effhol import Abs, Bind, Comp, Fun, KSTAR, PVar, Ret, kind_of, type_of
    from effreal.instances import continuation_instance, instantiate

    fun, lam, ret = BOT_TYPE, PVar(0), PVar(0)
    for _ in range(450):
        fun = Fun(fun, BOT_TYPE)
    for _ in range(900):
        lam, ret = Abs(BOT_TYPE, lam), Ret(ret)
    bind = Ret(PVar(0))
    for _ in range(450):
        bind = Bind(BOT_TYPE, Ret(PVar(0)), bind)
    ctx = (BOT_TYPE,)
    assert _at_limit_1000(lambda: kind_of((), fun)) == KSTAR
    assert isinstance(_at_limit_1000(lambda: type_of((), (), lam)), Fun)
    assert isinstance(_at_limit_1000(lambda: type_of((), ctx, ret)), Comp)
    assert _at_limit_1000(lambda: instantiate(bind, continuation_instance(), (), ctx)) is not None


def test_steppers_handle_deep_terms():
    """``contextual_step`` searches the evaluation contexts from an explicit
    stack: at the default recursion limit, a 3,000-deep lambda chain over a
    redex steps under FULL and CBN, and a 3,000-deep left-nested
    application spine over a redex steps under untyped cbv."""
    from effreal.effhol import Abs, App, PVar, Strategy, step
    from effreal.frame import UApp, ULam, UVar, untyped_step

    ident = Abs(BOT_TYPE, PVar(0))

    def lams(body):
        for _ in range(3000):
            body = Abs(BOT_TYPE, body)
        return body

    deep, want = lams(App(ident, ident)), lams(ident)
    assert _at_limit_1000(lambda: step(deep, Strategy.FULL)) == want
    assert _at_limit_1000(lambda: step(deep, Strategy.CBN)) == want

    w = ULam(UVar(0))

    def spine(head):
        for _ in range(3000):
            head = UApp(head, w)
        return head

    assert _at_limit_1000(lambda: untyped_step(spine(UApp(w, w)))) == spine(w)


def _deep_chain(deriv, imp, s, n, leaf):
    """``n`` rounds of ImpE over ImpI from ``leaf`` upward, all in the
    sequent ``s`` (``a |- a``): a 2n-deep derivation over constant-size
    formulas whose deepest node, ``leaf``, sits at path (0,) * 2n."""
    d = leaf
    for _ in range(n):
        fn = deriv("ImpI", replace(s, goal=imp(s.goal, s.goal)), (d,))
        d = deriv("ImpE", s, (fn, deriv("Id", s)))
    return d


def _calculus(kernel):
    """The derivation class, implication, ``a |- a`` sequent and checker
    of ``kernel``."""
    if kernel == "hol":
        return HolDerivation, Imp, Sequent((), (FALSUM,), FALSUM), hol_check
    return EffDerivation, SImp, EffSequent(EffContexts(), (TOP_SPEC,), TOP_SPEC), eff_check


@pytest.mark.parametrize("kernel", ["hol", "effhol"])
def test_kernels_check_deep_derivations(kernel):
    """Both kernels check a derivation node by node from an explicit stack:
    at the default recursion limit, a 2,000-deep ImpE-over-ImpI chain is
    accepted, and a defect in its deepest Id is rejected with that node's
    full path."""
    deriv, imp, s, check = _calculus(kernel)
    leaf = deriv("Id", s)
    good = _deep_chain(deriv, imp, s, 1000, leaf)
    assert _at_limit_1000(lambda: check(good)) == s
    bad = _deep_chain(deriv, imp, s, 1000, replace(leaf, premises=(leaf,)))
    with pytest.raises(RuleMismatch) as info:
        _at_limit_1000(lambda: check(bad))
    assert info.value.message == "Id expects 0 premise(s), got 1"
    assert info.value.path == (0,) * 2000


@pytest.mark.parametrize("kernel", ["hol", "effhol"])
def test_repr_of_a_deep_derivation_returns(kernel):
    """A derivation's ``repr`` does not walk its premises (print it to see
    them), so that of the 2,000-deep chain returns at the default
    recursion limit."""
    deriv, imp, s, _ = _calculus(kernel)
    d = _deep_chain(deriv, imp, s, 1000, deriv("Id", s))
    assert type(d).__name__ in _at_limit_1000(lambda: repr(d))


@pytest.mark.parametrize("kernel", ["hol", "effhol"])
def test_json_handles_deep_derivations(kernel):
    """Writing a derivation document, its text, and reading the document
    back walk the derivation from explicit stacks: at the default
    recursion limit, the 2,000-deep ImpE-over-ImpI chain round-trips to
    the same text."""
    deriv, imp, s, _ = _calculus(kernel)
    to_json, from_json = {
        "hol": (jsonio.hol_to_json, jsonio.hol_from_json),
        "effhol": (jsonio.eff_to_json, jsonio.eff_from_json),
    }[kernel]
    d = _deep_chain(deriv, imp, s, 1000, deriv("Id", s))
    data = _at_limit_1000(lambda: to_json(d))
    text = _at_limit_1000(lambda: jsonio.dumps(data))
    assert text.count('"rule": "ImpE"') == 1000
    back = _at_limit_1000(lambda: from_json(data))
    assert _at_limit_1000(lambda: jsonio.dumps(to_json(back))) == text


@pytest.mark.parametrize("kernel", ["hol", "effhol"])
def test_derivation_walks_handle_deep_derivations(kernel):
    """Every walk that builds a result from a derivation runs from one
    explicit stack, and derivations compare by identity: at the default
    recursion limit, the 2,000-deep ImpE-over-ImpI chain prints and parses
    back to the same text, and two separately built copies are unequal.
    The program-logic chain is also forgotten to a logic derivation, and
    instantiated under id and cont, and each result checks."""
    from effreal.effhol.forgetful import forget_derivation, forget_sequent
    from effreal.instances import continuation_instance, identity_instance, instantiate_derivation
    from tests.test_pipeline import printed

    deriv, imp, s, check = _calculus(kernel)
    d = _deep_chain(deriv, imp, s, 1000, deriv("Id", s))
    calc = HOL if kernel == "hol" else EFF
    text = _at_limit_1000(lambda: printed(d))
    (form,) = parse_all(text)
    back = _at_limit_1000(lambda: elab_derivation(SurfaceDoc(), calc, form))
    assert _at_limit_1000(lambda: printed(back)) == text
    assert _at_limit_1000(lambda: (d == d, back == d, d != back)) == (True, False, True)
    if kernel == "hol":
        return
    assert _at_limit_1000(lambda: hol_check(forget_derivation(d))) == forget_sequent(s)
    for inst in (identity_instance(), continuation_instance()):
        instance = _at_limit_1000(lambda: instantiate_derivation(d, inst))
        assert _at_limit_1000(lambda: check(instance)) == instance.conclusion


def test_extraction_handles_a_deep_derivation():
    """Plain extraction builds the realizer from one explicit stack: at the
    default recursion limit, the 500-deep logic chain extracts.  The
    realizer grows with the proof, so typing it bounds the depth."""
    deriv, imp, s, _ = _calculus("hol")
    d = _deep_chain(deriv, imp, s, 250, deriv("Id", s))
    res = _at_limit_1000(lambda: extract_realizer(d))
    assert res.goal_triple.goal.prog is res.realizer


def test_cli_checks_a_deep_derivation(tmp_path):
    """``check-hol`` reads and checks the 2,000-deep logic chain at the
    default recursion limit; ``extract --derive`` on it still exits 1 on
    the depth of the realizer's terms, without a traceback."""
    deriv, imp, s, _ = _calculus("hol")
    d = _deep_chain(deriv, imp, s, 1000, deriv("Id", s))
    f = tmp_path / "deep.hol"
    f.write_text(f"(hol-derivation deep {print_hol_derivation(d)})")
    assert _cli("check-hol", str(f)) == (0, "ok   deep\n", "")
    code, _, err = _cli("extract", str(f), "--derivation", "deep", "--derive")
    assert (code, err) == (1, "input is nested too deeply\n")


@pytest.mark.parametrize("kernel", ["hol", "effhol"])
def test_an_error_at_the_deepest_node_is_reported_unchanged(kernel):
    """A bad rule at the deepest node of the 2,000-deep chain is raised
    through every level of the walk as it was raised there: the text
    reader reports its line and column, and the JSON reader, given a
    second bad node later in the document, reports the first."""
    from tests.test_pipeline import printed

    deriv, imp, s, _ = _calculus(kernel)
    calc = HOL if kernel == "hol" else EFF
    d = _deep_chain(deriv, imp, s, 1000, deriv("Id", s))
    # in pre-order, the first Id is the deepest node
    text = printed(d).replace("(id ", "(bogus ", 1)
    (form,) = parse_all(text)
    with pytest.raises(SurfaceSyntaxError) as info:
        _at_limit_1000(lambda: elab_derivation(SurfaceDoc(), calc, form))
    assert str(info.value) == f"1:{text.index('(bogus ') + 1}: unknown rule 'bogus'"

    to_json, from_json = {
        "hol": (jsonio.hol_to_json, jsonio.hol_from_json),
        "effhol": (jsonio.eff_to_json, jsonio.eff_from_json),
    }[kernel]
    data = _at_limit_1000(lambda: to_json(d))
    node = data["derivation"]
    node["premises"][1]["rule"] = "Later"
    for _ in range(2000):
        node = node["premises"][0]
    node["rule"] = "Deepest"
    with pytest.raises(SurfaceSyntaxError, match="unknown rule tag 'Deepest'"):
        _at_limit_1000(lambda: from_json(data))
