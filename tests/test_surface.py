"""Surface syntax: elaboration, canonical printing, JSON, instance files."""

import gc
import json
import random
import tracemalloc
from enum import Enum, IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effreal.errors import ScopeError, SurfaceSyntaxError
from effreal.generators import (
    random_closed_program,
    random_hol_prop,
    random_spec,
    random_type,
)
from effreal.hol import FALSUM, Forall, Imp, MemBase, STAR, Sequent, Var, check as hol_check
from effreal.effhol import (
    EffContexts,
    EffSequent,
    KSTAR,
    SForallProg,
    SImp,
    check as eff_check,
)
from effreal.surface import (
    parse_document,
    print_eff_derivation,
    print_hol_derivation,
    print_hol_prop,
    print_program,
    print_spec,
    print_term,
    print_type,
    print_untyped,
)
from effreal.surface.elaborate import EffEnv, Env, SurfaceDoc, elab_derivation, elaborate
from effreal.surface.grammar import EFF, HOL, PROGRAMS, PROPS, SPECS, TYPES, UNTYPED
from effreal.surface import jsonio
from effreal.surface import sexp
from effreal.surface.sexp import Atom, SList, parse_all
from effreal.translation import extract_realizer
from tests.test_pipeline import printed
from tests.test_translation import k_combinator_derivation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _doc():
    return SurfaceDoc()


def roundtrip_prop(p):
    text = print_hol_prop(p)
    (form,) = parse_all(text)
    return elaborate(_doc(), PROPS, Env(), form)


def test_parse_falsum_encoding():
    (form,) = parse_all("(forall (u *) (member0 u))")
    assert elaborate(_doc(), PROPS, Env(), form) == FALSUM
    (short,) = parse_all("bot")
    assert elaborate(_doc(), PROPS, Env(), short) == FALSUM


def test_unbound_name_is_scope_error():
    (form,) = parse_all("(member0 nowhere)")
    with pytest.raises(ScopeError):
        elaborate(_doc(), PROPS, Env(), form)


def test_syntax_error_carries_position():
    with pytest.raises(SurfaceSyntaxError) as info:
        parse_all("(member0 (oops)")
    assert info.value.line == 1 and info.value.col == 1


def _reference_parse(text: str) -> list:
    """The reader as a character loop: every form as a nested tuple
    ``("atom", text, line, col)`` or ``("list", items, line, col)``; a
    syntax error as ``("error", message)``."""

    def tokens():
        line, col, i, n = 1, 1, 0, len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line, col, i = line + 1, 1, i + 1
            elif c in " \t\r":
                col, i = col + 1, i + 1
            elif c == ";":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in "()":
                yield c, line, col
                col, i = col + 1, i + 1
            else:
                start, start_col = i, col
                while i < n and text[i] not in " \t\r\n();":
                    i, col = i + 1, col + 1
                yield text[start:i], line, start_col

    stack, out = [], []
    for tok, line, col in tokens():
        if tok == "(":
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                return ("error", f"{line}:{col}: unbalanced ')'")
            items, l, c = stack.pop()
            (stack[-1][0] if stack else out).append(("list", tuple(items), l, c))
        else:
            (stack[-1][0] if stack else out).append(("atom", tok, line, col))
    if stack:
        return ("error", f"{stack[-1][1]}:{stack[-1][2]}: unclosed '('")
    return out


def _as_tuples(node):
    if isinstance(node, Atom):
        return ("atom", node.text, node.line, node.col)
    return ("list", tuple(_as_tuples(i) for i in node.items), node.line, node.col)


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(["(", ")", ";", "a", "é", "\t", "\r", "\n", "\f", " "])))
def test_reader_matches_the_character_loop(text):
    """``parse_all`` reads every text as the character-loop reader does:
    the same forms, the same line and column on each, and the same
    unbalanced or unclosed error at the same position."""
    try:
        got = [_as_tuples(f) for f in parse_all(text)]
    except SurfaceSyntaxError as exc:
        got = ("error", str(exc))
    assert got == _reference_parse(text)


@settings(max_examples=300, deadline=None)
@given(
    st.text(st.sampled_from(["(", ")", ";", "a", "é", "\t", "\r", "\n", "\f", " "])),
    st.integers(1, 6),
)
def test_reader_reads_the_same_a_slice_at_a_time(text, size):
    """Split into tokens a few characters at a time, a text reads as the
    character-loop reader reads it: a token cut by the end of a slice, or
    longer than a slice, is read whole."""
    saved, sexp._SLICE = sexp._SLICE, size
    try:
        got = [_as_tuples(f) for f in parse_all(text)]
    except SurfaceSyntaxError as exc:
        got = ("error", str(exc))
    finally:
        sexp._SLICE = saved
    assert got == _reference_parse(text)


# First declarations that fail to elaborate, with the error each raises.
_ELABORATION_FAILURES = {
    "unknown-term": ("(prop p (member0 nowhere))", ScopeError),
    "unknown-declaration": ("(bogus p bot)", SurfaceSyntaxError),
    "declared-twice": ("(prop p bot)\n(prop p bot)", SurfaceSyntaxError),
    "too-deep": ("(prop p " + "(not " * 10_000 + "bot" + ")" * 10_000 + ")", RecursionError),
}
# Later text the reader rejects, with the column of its error on the
# tail's last line.
_READER_FAILURES = {
    "unbalanced": ("\n(prop q bot))", "13: unbalanced ')'"),
    "unclosed": ("\n(prop q (not bot)", "1: unclosed '('"),
}


@pytest.mark.parametrize("tail", sorted(_READER_FAILURES))
@pytest.mark.parametrize("first", sorted(_ELABORATION_FAILURES))
def test_a_reader_error_wins_over_an_earlier_elaboration_error(first, tail):
    """A document is read to its end before an elaboration error is
    reported: a reader error anywhere in the text is raised instead, with
    its own message and position."""
    head, raised = _ELABORATION_FAILURES[first]
    rest, where = _READER_FAILURES[tail]
    with pytest.raises(raised):
        parse_document(head)
    with pytest.raises(SurfaceSyntaxError) as info:
        parse_document(head + rest)
    assert str(info.value) == f"{head.count(chr(10)) + 2}:{where}"


def _reader_forms() -> int:
    return sum(isinstance(o, (Atom, SList)) for o in gc.get_objects())


def test_reading_holds_one_declaration_at_a_time():
    """Reading a 1,000-declaration document peaks at no more than 1.5
    times what the returned document keeps, and no reader form outlives
    the read: each declaration's tree is dropped once it is elaborated."""
    rng = random.Random(23)
    text = []
    for i in range(500):
        p, ty = random_closed_program(rng, 8)
        text += [f"(type g{i} {print_type(ty)})", f"(program g{i} {print_program(p)})"]
    text = "\n".join(text)
    gc.collect()
    forms = _reader_forms()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = parse_document(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.programs) == len(doc.types) == 500
    assert peak - base <= 1.5 * (kept - base), (peak - base, kept - base)
    assert _reader_forms() == forms


class _Mode(str, Enum):
    PLAIN = "plain"
    ODD = "é\n\x00\"\\"


class _Count(IntEnum):
    ONE = 1


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from([_Mode.PLAIN, _Mode.ODD, _Count.ONE])
)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        _JSON_SCALARS,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=30,
    )
)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    """``jsonio.dumps`` writes what ``json.dumps`` writes with a two-space
    indent and sorted keys, for nested lists, tuples and dicts (empty
    ones too), strings with non-ASCII and control characters, booleans,
    ``None``, integers, floats (infinities and NaN too) and enum members."""
    assert jsonio.dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_hol_prop_print_parse_roundtrip(seed, size):
    rng = random.Random(seed)
    p = random_hol_prop(rng, (), size)
    assert roundtrip_prop(p) == p


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_type_and_program_roundtrip(seed):
    rng = random.Random(seed)
    t = random_type(rng, (), KSTAR, 3)
    (form,) = parse_all(print_type(t))
    assert elaborate(_doc(), TYPES, EffEnv(), form) == t
    p, _ = random_closed_program(rng, size=4)
    (pform,) = parse_all(print_program(p))
    assert elaborate(_doc(), PROGRAMS, EffEnv(), pform) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_spec_roundtrip(seed):
    rng = random.Random(seed)
    s = random_spec(rng, (), (), 3)
    (form,) = parse_all(print_spec(s))
    assert elaborate(_doc(), SPECS, EffEnv(), form) == s


def test_macros():
    doc = _doc()
    (na,) = parse_all("(not bot)")
    assert elaborate(doc, PROPS, Env(), na) == Imp(FALSUM, FALSUM)
    (conj,) = parse_all("(and bot bot)")
    p = elaborate(doc, PROPS, Env(), conj)
    # forall u:*. (bot => bot => u in0) => u in0
    assert isinstance(p, Forall)
    (ex,) = parse_all("(exists (u *) (member0 u))")
    q = elaborate(doc, PROPS, Env(), ex)
    assert isinstance(q, Forall)
    from effreal.hol import prop_wf

    prop_wf((), p)
    prop_wf((), q)


def test_and_intro_elim_derivable():
    """The conjunction macro supports introduction and elimination."""
    from effreal.hol import TERM, HolDerivation, Sequent, shift, subst
    from effreal.hol import ComprBase

    a = Imp(FALSUM, FALSUM)
    b = Forall(STAR, MemBase(Var(0)))
    doc = _doc()
    (conj_form,) = parse_all("(and A B)")
    doc.props["A"] = a
    doc.props["B"] = b
    conj = elaborate(doc, PROPS, Env(), conj_form)
    # intro: from a and b, derive the encoded conjunction
    sa, sb = shift(a, TERM), shift(b, TERM)
    u_in = MemBase(Var(0))
    inner = Imp(sa, Imp(sb, u_in))
    hyps = (a, b)
    shyps = (sa, sb)
    d = HolDerivation(
        "UniI",
        Sequent((), hyps, conj),
        (
            HolDerivation(
                "ImpI",
                Sequent((STAR,), shyps, Imp(inner, u_in)),
                (
                    HolDerivation(
                        "ImpE",
                        Sequent((STAR,), shyps + (inner,), u_in),
                        (
                            HolDerivation(
                                "ImpE",
                                Sequent((STAR,), shyps + (inner,), Imp(sb, u_in)),
                                (
                                    HolDerivation("Id", Sequent((STAR,), shyps + (inner,), inner)),
                                    HolDerivation("Id", Sequent((STAR,), shyps + (inner,), sa)),
                                ),
                            ),
                            HolDerivation("Id", Sequent((STAR,), shyps + (inner,), sb)),
                        ),
                    ),
                ),
            ),
        ),
    )
    hol_check(d)
    # elim (first projection): instantiate at {a}0 and apply to the K proof
    t = ComprBase(a)
    inst = subst(Imp(inner, u_in), TERM, 0, t)
    d_elim = HolDerivation(
        "UniE", Sequent((), (conj,), inst), (HolDerivation("Id", Sequent((), (conj,), conj)),), witness=t
    )
    hol_check(d_elim)


def test_document_and_derivation_checking():
    text = """
    (prop truth (imp bot bot))
    (prop k-goal (imp truth (imp bot truth)))
    (hol-derivation refl
      (imp-i (sequent () (hyps) (imp bot bot))
        (id (sequent () (hyps bot) bot))))
    (hol-derivation k
      (imp-i (sequent () (hyps) k-goal)
        (imp-i (sequent () (hyps truth) (imp bot truth))
          (id (sequent () (hyps truth bot) truth)))))
    """
    doc = parse_document(text)
    assert set(doc.hol_derivations) == {"refl", "k"}
    for d in doc.hol_derivations.values():
        hol_check(d)


def test_derivation_print_parse_roundtrip():
    d = k_combinator_derivation()
    text = print_hol_derivation(d)
    doc = _doc()
    (form,) = parse_all(text)
    assert printed(elab_derivation(doc, HOL, form)) == text


def test_eff_derivation_roundtrip_via_text_and_json():
    res = extract_realizer(k_combinator_derivation(), derive=True)
    d = res.derivation
    text = print_eff_derivation(d)
    (form,) = parse_all(text)
    back = elab_derivation(_doc(), EFF, form)
    assert printed(back) == text
    eff_check(back)

    data = jsonio.eff_to_json(d)
    blob = jsonio.dumps(data)
    back2 = jsonio.eff_from_json(json.loads(blob))
    assert printed(back2) == text


def test_hol_json_roundtrip_and_validation():
    d = k_combinator_derivation()
    data = jsonio.hol_to_json(d)
    back = jsonio.hol_from_json(json.loads(jsonio.dumps(data)))
    assert printed(back) == printed(d)
    bad = json.loads(jsonio.dumps(data))
    bad["derivation"]["rule"] = "Bogus"
    with pytest.raises(SurfaceSyntaxError):
        jsonio.hol_from_json(bad)
    bad2 = json.loads(jsonio.dumps(data))
    bad2["schema"] = "effreal/derivation/999"
    with pytest.raises(SurfaceSyntaxError):
        jsonio.hol_from_json(bad2)


def test_json_rejects_missing_witness():
    from effreal.hol import ComprBase as HComprBase

    allp = Forall(STAR, MemBase(Var(0)))
    t = HComprBase(FALSUM)
    from effreal.hol import HolDerivation, Sequent

    d = HolDerivation(
        "UniE",
        Sequent((), (allp,), MemBase(t)),
        (HolDerivation("Id", Sequent((), (allp,), allp)),),
        witness=t,
    )
    data = json.loads(jsonio.dumps(jsonio.hol_to_json(d)))
    del data["derivation"]["witnesses"]["term"]
    with pytest.raises(SurfaceSyntaxError):
        jsonio.hol_from_json(data)


def _anti_reduction():
    doc = parse_document((CORPUS / "effhol_basic.eff").read_text())
    return doc.eff_derivations["anti-reduction"]


def test_text_reads_the_printed_step_counts():
    text = print_eff_derivation(_anti_reduction())
    for steps in ("0", "1", "10"):
        (form,) = parse_all(text.replace(" 1 base ", f" {steps} base "))
        assert elab_derivation(_doc(), EFF, form).steps == int(steps)


@pytest.mark.parametrize("steps", ["01", "+1", "1_0", "\u0661", "-1"])
def test_text_reads_no_other_step_count(steps):
    """A step count is read only as the printer writes it, ASCII
    ``0|[1-9][0-9]*``: any other spelling is an error at its atom."""
    text = print_eff_derivation(_anti_reduction())
    assert text.count(" 1 base ") == 1
    text = text.replace(" 1 base ", f" {steps} base ")
    (form,) = parse_all(text)
    with pytest.raises(SurfaceSyntaxError) as info:
        elab_derivation(_doc(), EFF, form)
    col = text.index(f" {steps} base ") + 2
    assert str(info.value) == f"1:{col}: bad step count {steps!r}"


@pytest.mark.parametrize("steps", [1.9, True, "1", -1, 1e400])
def test_json_reads_no_step_count_but_a_non_negative_integer(steps):
    data = json.loads(jsonio.dumps(jsonio.eff_to_json(_anti_reduction())))
    assert data["derivation"]["witnesses"]["steps"] == 1
    data["derivation"]["witnesses"]["steps"] = steps
    with pytest.raises(SurfaceSyntaxError) as info:
        jsonio.eff_from_json(data)
    assert str(info.value) == f"1:1: bad step count {steps!r}"


# One declaration for each table of a document; the assertion names the
# proposition and evidence of _EF_PREAMBLE.
_EF_PREAMBLE = "(ef-prop q (lam (x) (ret x))) (ef-evidence w (lam (x) (ret x)))"
_DECLARATIONS = {
    "sort": "(sort s *)",
    "prop": "(prop a bot)",
    "hol-derivation": "(hol-derivation d (id (sequent () (hyps bot) bot)))",
    "kind": "(kind k *)",
    "type": "(type t bot-type)",
    "program": "(program p (lam (x bot-type) x))",
    "index": "(index i (ref0 bot-type))",
    "expr": "(expr e (compr0 (x bot-type) top-spec))",
    "spec": "(spec s top-spec)",
    "eff-derivation": (
        "(eff-derivation d (id (sequent (kinds) (indices) (types) (hyps top-spec) top-spec)))"
    ),
    "instance": (
        "(instance i (strategy base) (comp (T) T) (ret (T p) p)"
        " (bind (T1 T2 p1 rest) (app (lam (x T1) rest) p1))"
        " (after (T p body) (member0 p (compr0 (x T) body))))"
    ),
    "ef-prop": "(ef-prop a (lam (x) (ret x)))",
    "ef-evidence": "(ef-evidence v (lam (x) (ret x)))",
    "ef-assert": "(ef-assert b q w q)",
}


@pytest.mark.parametrize("tag", sorted(_DECLARATIONS))
def test_a_name_declared_twice_in_one_table_is_rejected(tag):
    """A second declaration of a name in the same table is a syntax error
    at that declaration, not a silent replacement of the first."""
    decl = _DECLARATIONS[tag]
    parse_document(f"{_EF_PREAMBLE}\n{decl}")
    with pytest.raises(SurfaceSyntaxError) as info:
        parse_document(f"{_EF_PREAMBLE}\n{decl}\n{decl}")
    assert str(info.value) == f"3:1: {tag} {decl.split()[1]!r} is declared twice"


def test_tables_have_their_own_names():
    doc = parse_document("(type g bot-type) (program g (lam (x bot-type) x))")
    assert set(doc.types) == set(doc.programs) == {"g"}


def test_untyped_roundtrip():
    from effreal.frame import UApp, UBind, ULam, UPair, UProj1, URet, UVar

    t = ULam(UBind(URet(UVar(0)), UApp(UProj1(UPair(UVar(0), UVar(1))), UVar(0))))
    text = print_untyped(t)
    (form,) = parse_all(text)
    assert elaborate(_doc(), UNTYPED, Env(), form) == t


def test_corpus_documents_roundtrip():
    """Canonical printing of every corpus object re-parses to itself."""
    for fname in ("hol_basic.hol", "effhol_basic.eff", "programs.eff"):
        doc = parse_document((CORPUS / fname).read_text())
        for p in doc.props.values():
            (form,) = parse_all(print_hol_prop(p))
            assert elaborate(_doc(), PROPS, Env(), form) == p
        for d in doc.hol_derivations.values():
            (form,) = parse_all(printed(d))
            assert printed(elab_derivation(_doc(), HOL, form)) == printed(d)
        for t in doc.types.values():
            (form,) = parse_all(print_type(t))
            assert elaborate(_doc(), TYPES, EffEnv(), form) == t
        for p in doc.programs.values():
            (form,) = parse_all(print_program(p))
            assert elaborate(_doc(), PROGRAMS, EffEnv(), form) == p
        for s in doc.specs.values():
            (form,) = parse_all(print_spec(s))
            assert elaborate(_doc(), SPECS, EffEnv(), form) == s
        for d in doc.eff_derivations.values():
            (form,) = parse_all(printed(d))
            assert printed(elab_derivation(_doc(), EFF, form)) == printed(d)


def test_instance_file_matches_continuation():
    """The shipped continuation instance, declared declaratively."""
    text = """
    (instance cont-file
      (strategy cbn)
      (comp (T) (neg (neg T)))
      (ret (T p) (lam (k (neg T)) (app k p)))
      (bind (T1 T2 p1 rest)
        (lam (k (neg T2)) (app p1 (lam (x T1) (app rest k)))))
      (after (T p body)
        (member0 p
          (compr0 (z (neg (neg T)))
            (allp (k (neg T))
              (imp (member0 k
                     (compr0 (kk (neg T))
                       (allp (q T)
                         (imp (member0 q (compr0 (x T) body))
                              (member0 (app kk q)
                                       (compr0 (w bot-type) bot-spec))))))
                   (member0 (app z k) (compr0 (w bot-type) bot-spec))))))))
    """
    doc = parse_document(text)
    inst = doc.instances["cont-file"]
    from effreal.instances import continuation_instance, instantiate, instantiate_prog
    from effreal.effhol import Abs, BOT_TYPE, PVar, Ret, After, SMemBase, ComprBase, TOP_SPEC

    cont = continuation_instance()
    ident = Abs(BOT_TYPE, PVar(0))
    assert instantiate_prog(Ret(ident), inst) == instantiate_prog(Ret(ident), cont)
    assert inst.comp_type(BOT_TYPE) == cont.comp_type(BOT_TYPE)
    from effreal.effhol import Fun

    tid = Fun(BOT_TYPE, BOT_TYPE)
    spec = After(Ret(ident), tid, SMemBase(PVar(0), ComprBase(tid, TOP_SPEC)))
    assert instantiate(spec, inst) == instantiate(spec, cont)
    from effreal.effhol import Bind

    b = Bind(tid, Ret(ident), Ret(PVar(0)))
    assert instantiate_prog(b, inst) == instantiate_prog(b, cont)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_continuation_file_matches_builtin_with_free_variables(seed):
    """``corpus/instance_cont.inst`` gives the same node as the built-in
    continuation instance on programs and specifications whose free type
    and program variables the pieces carry into the templates."""
    from effreal.generators import random_kind, random_typed_program
    from effreal.instances import continuation_instance, instantiate

    cont = continuation_instance()
    (file_inst,) = parse_document((CORPUS / "instance_cont.inst").read_text()).instances.values()
    rng = random.Random(seed)
    kctx = tuple(random_kind(rng, 1) for _ in range(rng.randrange(3)))
    tctx = tuple(random_type(rng, kctx, KSTAR, 2) for _ in range(rng.randrange(4)))
    for x in (random_typed_program(rng, kctx, tctx, 6), random_spec(rng, kctx, tctx, 4)):
        assert instantiate(x, file_inst, kctx, tctx) is instantiate(x, cont, kctx, tctx)


def test_instance_templates_splice_across_their_binders():
    """Parameters under template type, program and expression binders are
    shifted across them, ``body`` has its program variable 0 captured by
    the innermost program binder, a template binder named like a
    parameter is that binder (without a shadowing warning), and a
    template keeps the declarations made before its instance."""
    import warnings

    from effreal._astnode import shift
    from effreal.effhol import (
        EXPR, PROG, TYPE, TOP_SPEC, Abs, App, BOT_TYPE, ComprBase, Fun, KBase, RefBase,
        SForallExpr, SMemBase, TVar, TyAbs, TyApp, PVar,
    )

    text = """
    (type U bot-type)
    (instance shifty
      (strategy base)
      (comp (T) (fun U T))
      (ret (T p) (tyabs (X *) (app (lam (p T) p) p)))
      (bind (T1 T2 p1 rest) (lam (x T1) rest))
      (after (T p body)
        (alle (y (ref0 T))
          (allp (z T)
            (imp (member0 p (compr0 (w T) top-spec))
                 (allp (x T) body))))))
    (type U2 (fun bot-type bot-type))
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = parse_document(text).instances["shifty"]
        t, p = TVar(1), TyApp(PVar(2), TVar(0))
        body = SMemBase(PVar(0), ComprBase(t, SMemBase(PVar(3), ComprBase(t, TOP_SPEC))))
        assert inst.comp_type(t) is Fun(BOT_TYPE, t)
        p_t = shift(p, TYPE)
        assert inst.ret_prog(t, p) is TyAbs(KBase(), App(Abs(shift(t, TYPE), PVar(0)), p_t))
        assert inst.bind_prog(t, t, p, p) is Abs(t, p)
        got = inst.after_spec(t, p, body)
    p_pe = shift(shift(p, PROG), EXPR)
    body_in = shift(shift(body, PROG, 1, 1), EXPR)
    assert got is SForallExpr(RefBase(t), SForallProg(t, SImp(
        SMemBase(p_pe, ComprBase(t, TOP_SPEC)), SForallProg(t, body_in)
    )))


def _instance_file(bind: str, after: str) -> str:
    return f"(instance bad (strategy base) (comp (T) T) (ret (T p) p) {bind} {after})"


# Instance files with ``rest`` or ``body`` outside every program binder of
# their template, and the message each is rejected with.
MISPLACED = {
    "rest": (
        _instance_file(
            "(bind (T1 T2 p1 rest) (app p1 rest))",
            "(after (T p body) (member0 p (compr0 (x T) body)))",
        ),
        "template uses the result parameter outside its binder",
    ),
    "body": (
        _instance_file(
            "(bind (T1 T2 p1 rest) (app (lam (x T1) rest) p1))",
            "(after (T p body) (imp body (allp (x T) body)))",
        ),
        "the body parameter must sit under its program binder",
    ),
}


@pytest.mark.parametrize("param", sorted(MISPLACED))
def test_misplaced_parameters_are_rejected_at_load(param):
    from effreal.errors import TemplateMissing

    text, message = MISPLACED[param]
    with pytest.raises(TemplateMissing, match=message):
        parse_document(text)


def _stray(sections: str, culprit: str, message: str) -> tuple[str, str]:
    """``corpus/instance_cont.inst`` with ``sections`` inserted after its
    strategy, and the error it loads with: ``message`` at the first
    ``culprit``."""
    text = (CORPUS / "instance_cont.inst").read_text()
    text = text.replace("(strategy cbn)\n", f"(strategy cbn)\n  {sections}\n")
    before = text[: text.index(culprit)].split("\n")
    return text, f"{len(before)}:{len(before[-1]) + 1}: {message}"


# Instance files with a section the format does not have, or with a
# section given twice, and the located error each is rejected with.
STRAY_SECTIONS = {
    "unknown": _stray("(comp (T) T) (bogus 1 2 3)", "(bogus", "unknown instance section (bogus ...)"),
    "repeated": _stray("(comp (T) T)", "(comp (T) (neg", "repeated instance section (comp ...)"),
}


@pytest.mark.parametrize("case", sorted(STRAY_SECTIONS))
def test_stray_instance_sections_are_rejected_at_load(case):
    """An instance is read whole: a section with an unknown tag, or a
    second section with a tag, is a located syntax error, not skipped."""
    text, message = STRAY_SECTIONS[case]
    with pytest.raises(SurfaceSyntaxError) as info:
        parse_document(text)
    assert str(info.value) == message


def test_grammar_covers_every_node_class_and_rule():
    """The grammar table names every node class of each category and
    every rule the kernels check."""
    from effreal.effhol.theory import EFF_PREMISES
    from effreal.hol.checker import HOL_PREMISES
    from effreal.surface.grammar import CATEGORIES, FORMS

    for cat in CATEGORIES:
        assert set(cat.base.__subclasses__()) <= set(FORMS), cat.noun
    assert set(HOL.rules) == set(HOL_PREMISES)
    assert set(EFF.rules) == set(EFF_PREMISES)


def _reference_json(calc, d) -> dict:
    """The JSON node of ``d`` from one ``print_sequent`` and one
    ``witness_texts`` call per node, each with its own table."""
    from effreal.surface.printer import print_sequent, witness_texts

    depth = calc.depth(calc.contexts(d.conclusion))
    return {
        "rule": d.rule,
        "conclusion": print_sequent(calc, d.conclusion),
        "witnesses": witness_texts(calc, d, depth, {}),
        "premises": [_reference_json(calc, p) for p in d.premises],
    }


def _reference_text(calc, d, node: dict) -> str:
    """The text form of ``d`` from ``node``, its ``_reference_json``."""
    from effreal.surface.grammar import ANNOTATES, binder_name

    rule = calc.rules[d.rule]
    texts = node["witnesses"]
    parts = [node["conclusion"]]
    witnesses = iter(rule.witnesses)
    for w in witnesses:
        if w.key not in texts:
            continue
        if w.binds:
            body = next(witnesses)
            ns = ANNOTATES[w.category]
            name = binder_name(ns, calc.depth(calc.contexts(d.conclusion))[ns.slot])
            parts.append(f"({w.binds} ({name} {texts[w.key]}) {texts[body.key]})")
        else:
            parts.append(f"{texts[w.key]}")
    parts += [_reference_text(calc, p, q) for p, q in zip(d.premises, node["premises"])]
    return f"({rule.tag} " + " ".join(parts) + ")"


def _sequent_by_print_term(calc, seq) -> str:
    """The text of ``seq`` assembled from table-free ``print_term`` calls."""
    from effreal.surface.grammar import ANNOTATES, binder_name

    contexts = calc.contexts(seq)
    depth = calc.depth(contexts)
    sections = []
    for (tag, cat), entries in zip(calc.sections, contexts):
        ns = ANNOTATES[cat]
        names = [f"({binder_name(ns, i)} {print_term(a, *depth)})" for i, a in enumerate(entries)]
        sections.append("(" + " ".join(([tag] if tag else []) + names) + ")")
    hyps = "".join(" " + print_term(p, *depth) for p in seq.hyps)
    return f"(sequent {' '.join(sections)} (hyps{hyps}) {print_term(seq.goal, *depth)})"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_counted_table_prints_as_print_term(seed):
    """Sequents whose hypotheses and goal repeat generated subterms, one of
    them also under one more binder, print with one text table as their
    formulas printed one by one without a table."""
    from effreal.surface.printer import print_sequent

    rng = random.Random(seed)
    kinds = (KSTAR,)
    types = tuple(random_type(rng, kinds, KSTAR, 1) for _ in range(rng.randrange(3)))
    parts = [random_spec(rng, kinds, types, 3) for _ in range(3)]
    deeper = SForallProg(random_type(rng, kinds, KSTAR, 1), SImp(parts[0], parts[1]))
    hyps = tuple(rng.choice(parts) for _ in range(4)) + (deeper, SImp(parts[0], parts[0]))
    seq = EffSequent(EffContexts(kinds=kinds, types=types), hyps, SImp(deeper, rng.choice(parts)))
    assert print_sequent(EFF, seq) == _sequent_by_print_term(EFF, seq)

    sorts = (STAR, STAR)
    props = [random_hol_prop(rng, sorts, 3) for _ in range(3)]
    deeper = Forall(STAR, Imp(props[0], props[1]))
    hyps = tuple(rng.choice(props) for _ in range(4)) + (deeper, Imp(props[0], props[0]))
    seq = Sequent(sorts, hyps, Imp(deeper, rng.choice(props)))
    assert print_sequent(HOL, seq) == _sequent_by_print_term(HOL, seq)


def test_printing_tables_do_not_change_the_output():
    """A derivation printed with one table per top-level call, as JSON and
    as text, reads as one printed sequent by sequent, each with a table of
    its own: for every replayed corpus derivation, its id and cont
    instances, and their forgotten logic derivations."""
    from effreal.effhol.forgetful import forget_derivation
    from effreal.errors import TemplateMissing
    from effreal.instances import (
        continuation_instance,
        identity_instance,
        instantiate_derivation,
    )

    doc = parse_document((CORPUS / "hol_basic.hol").read_text())
    instances = (identity_instance(), continuation_instance())
    replayed = 0
    for d in doc.hol_derivations.values():
        try:
            derived = extract_realizer(d, derive=True).derivation
        except TemplateMissing:
            continue
        replayed += 1
        for x in (derived, *(instantiate_derivation(derived, i) for i in instances)):
            h = forget_derivation(x)
            for calc, y, to_json, to_text in (
                (EFF, x, jsonio.eff_to_json, print_eff_derivation),
                (HOL, h, jsonio.hol_to_json, print_hol_derivation),
            ):
                ref = _reference_json(calc, y)
                assert to_json(y)["derivation"] == ref
                assert to_text(y) == _reference_text(calc, y, ref)
    assert replayed >= 9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_scoped_keys_print_as_print_term(seed):
    """Generated types, indices and programs recur in the context entries,
    hypotheses and goals of eight sequents, one for each of one to four
    program binders and zero or one expression binders in scope, also
    inside ``allp``, ``alle`` and ``allk`` binders.  Printed with one
    table for all eight, each sequent reads as its formulas printed one by
    one without a table."""
    from effreal.effhol import (
        After, ComprBase, EVar, Ref, RefBase, Ret, SForallExpr, SForallType, SMemBase, TOP_SPEC,
    )
    from effreal.generators import random_typed_program
    from effreal.surface.printer import _sequent

    rng = random.Random(seed)
    kinds = (KSTAR,) * rng.randint(1, 2)
    tys = tuple(random_type(rng, kinds, KSTAR, 2) for _ in range(3))
    progs = [random_typed_program(rng, kinds, tys[:1], 4) for _ in range(2)]
    idxs = [RefBase(tys[0]), Ref(tys[1], RefBase(tys[2]))]

    def formula():
        p, t, i = rng.choice(progs), rng.choice(tys), rng.choice(idxs)
        inner = SMemBase(p, ComprBase(t, TOP_SPEC))
        return rng.choice((
            inner,
            SForallProg(t, inner),
            SForallExpr(i, SMemBase(p, EVar(0))),
            SForallExpr(i, SForallProg(t, inner)),
            SForallType(KSTAR, inner),
            After(Ret(p), t, SImp(inner, SForallProg(t, inner))),
        ))

    table: dict = {}
    for n_types in (1, 2, 3, 4):
        for n_indices in (0, 1):
            ctxs = EffContexts(
                kinds=kinds,
                indices=tuple(rng.choice(idxs) for _ in range(n_indices)),
                types=tuple(rng.choice(tys) for _ in range(n_types)),
            )
            seq = EffSequent(ctxs, tuple(formula() for _ in range(4)), formula())
            assert _sequent(EFF, seq, table)[0] == _sequent_by_print_term(EFF, seq)


def _perfbench_inputs():
    """The benchmark's input makers (``perfbench/inputs.py``)."""
    import sys

    sys.path.insert(0, str(CORPUS.parent / "perfbench"))  # it imports its sibling ``answers``
    try:
        import inputs
    finally:
        sys.path.remove(str(CORPUS.parent / "perfbench"))
    return inputs


def _scoped_keys(d) -> set:
    """The ``(node, depths)`` keys with children that printing the
    program-logic derivation ``d`` reaches, found without the printer:
    each key keeps the depths its category can read (none for kinds, the
    type depth for types and indices, type and program depth for programs,
    all three for expressions and specifications), and a key reached
    before is not entered again."""
    from effreal.effhol import syntax as e
    from effreal.surface.grammar import ANNOTATES, FORMS, Literal

    reads = {e.Kind: 0, e.EffType: 1, e.EffIndex: 1, e.EffProgram: 2, e.EffExpr: 3, e.EffSpec: 3}
    keys, todo = set(), []
    for node in _nodes(d):
        seq = node.conclusion
        depth = (len(seq.ctxs.kinds), len(seq.ctxs.types), len(seq.ctxs.indices))
        ctxs = (*seq.ctxs.kinds, *seq.ctxs.indices, *seq.ctxs.types)
        todo += [(x, depth) for x in (*ctxs, *seq.hyps, seq.goal)]
        witnesses = iter(EFF.rules[node.rule].witnesses)
        for w in witnesses:
            if not isinstance(w.category, Literal):
                todo.append((getattr(node, w.field), depth))
            if w.binds:
                body = next(witnesses)
                slot = ANNOTATES[w.category].slot
                under = depth[:slot] + (depth[slot] + 1,) + depth[slot + 1 :]
                todo.append((getattr(node, body.field), under))
    while todo:
        x, depth = todo.pop()
        form = FORMS[type(x)]
        if form.var is not None or not form.items:
            continue
        base = next(b for b in reads if isinstance(x, b))
        key = (x, depth[: reads[base]])
        if key in keys:
            continue
        keys.add(key)
        for name, _, binds, under in form.items:
            if name is not None:
                todo.append((getattr(x, name), depth if binds else _plus(depth, under)))
    return keys


def _plus(depth: tuple, under: tuple) -> tuple:
    return tuple(a + b for a, b in zip(depth, under + (0,) * len(depth)))


def _nodes(d) -> list:
    found, todo = [], [d]
    while todo:
        found.append(todo.pop())
        todo += found[-1].premises
    return found


def test_each_scoped_key_is_printed_once(monkeypatch):
    """Writing the JSON of the seed-1 benchmark imp chain replay at n=16
    prints a node's children once per ``(node, depths it can read)`` key:
    the ``_emit`` calls that append more than one part, a node with its
    children, are as many as the keys ``_scoped_keys`` finds."""
    from effreal.surface import printer

    d = extract_realizer(
        _perfbench_inputs().imp_chain(random.Random(1), 16), derive=True
    ).derivation
    emit, printed = printer._emit, 0

    def counting(x, depth, out, table):
        nonlocal printed
        before = len(out)
        emit(x, depth, out, table)
        printed += len(out) - before > 1

    monkeypatch.setattr(printer, "_emit", counting)
    jsonio.eff_to_json(d)
    assert printed == len(_scoped_keys(d))


def test_the_printing_table_holds_no_text_of_its_own():
    """With one table for every node of a replayed derivation, passed to
    ``_sequent`` and ``witness_texts``, every entry refers, by identity, to
    a conclusion or witness text one of those calls returned."""
    from effreal.surface.printer import _sequent, _witnesses, witness_texts

    d = extract_realizer(
        _perfbench_inputs().imp_chain(random.Random(1), 6), derive=True
    ).derivation
    table: dict = {}
    returned = []
    for node in _nodes(d):
        text, depth = _sequent(EFF, node.conclusion, table)
        texts = witness_texts(EFF, node, depth, table)
        returned += [text] + [texts[k] for k, _, at in _witnesses(EFF, node, depth) if at]
    assert any(node.rule == "AntiRed" for node in _nodes(d))
    ids = {id(text) for text in returned}
    assert table
    for text, start, end in table.values():
        assert type(text) is str and id(text) in ids
        assert 0 <= start < end <= len(text)


def test_a_shadowing_binder_warns_at_its_position():
    """The library reports a shadowing binder as a ``UserWarning`` that
    carries the binder's line and column, under a quantifier and in a
    sequent context."""
    import warnings

    from effreal.errors import ShadowWarning

    text = """(prop p
      (forall (u *)
        (forall (u *) (member0 u))))
    (eff-derivation d (id (sequent (kinds (X *) (X *)) (indices) (types) (hyps) top-spec)))"""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_document(text)
    assert [(w.category, w.message.line, w.message.col) for w in caught] == [
        (ShadowWarning, 3, 18), (ShadowWarning, 4, 50),
    ]
    assert issubclass(ShadowWarning, UserWarning)
    assert str(caught[0].message) == (
        "3:18: binder 'u' shadows an outer binder; resolving to the nearest"
    )
