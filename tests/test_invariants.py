"""Cross-cutting invariants: judgement substitution, triple emission,
instantiated reduction axioms, hash-consing, and the trusted base's size."""

# Node classes defined here keep their annotations in the class body, where
# the node metaclass reads its slots from.
from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effreal._astnode import _TABLE, NonTerm, Term, _shift, astnode
from effreal.effhol import (
    Abs,
    After,
    App,
    BOT_SPEC,
    BOT_TYPE,
    Bind,
    Comp,
    ComprBase,
    EffType,
    Fun,
    KSTAR,
    Kind,
    PVar,
    Ret,
    SForallProg,
    SImp,
    SMemBase,
    Strategy,
    TAbs,
    TApp,
    TOP_SPEC,
    TVar,
    TyAbs,
    TyApp,
    type_of,
)
from effreal.effhol.conversion import normalize, normalize_type
from effreal.effhol.reduction import count_steps, multi_step, step
from effreal.frame import UVar, erase
from effreal.hol import Base
from effreal.effhol import PROG, TYPE, shift, subst
from effreal.generators import (
    random_closed_program,
    random_computation,
    random_hol_prop,
    random_kind,
    random_sort,
    random_spec,
    random_type,
    random_typed_program,
)
from effreal.instances import (
    continuation_instance,
    identity_instance,
    instantiate_prog,
)
from effreal.surface import print_program, print_spec
from effreal.surface.elaborate import EffEnv, SurfaceDoc, elaborate
from effreal.surface.grammar import PROGRAMS, SPECS
from effreal.surface.sexp import parse_all
from effreal.translation import extract_realizer
from tests.test_pipeline import _nodes, printed


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_judgement_substitution_types(seed):
    """Substituting a well-kinded type into a well-kinded type preserves kinds."""
    from effreal.effhol import kind_of
    from effreal.generators import random_kind

    rng = random.Random(seed)
    kappa = random_kind(rng, 1)
    t = random_type(rng, (kappa,), KSTAR, 3)
    sub = random_type(rng, (), kappa, 2)
    assert kind_of((), subst(t, TYPE, 0, sub)) == KSTAR


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_judgement_substitution_programs(seed):
    """Substituting a well-typed program for a variable preserves typing."""
    rng = random.Random(seed)
    sub = random_typed_program(rng, (), (), 3)
    tsub = type_of((), (), sub)
    p = random_typed_program(rng, (), (tsub,), 3)
    tp = type_of((), (tsub,), p)
    assert type_of((), (), subst(p, PROG, 0, sub)) == tp


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_judgement_substitution_type_into_program(seed):
    rng = random.Random(seed)
    rng = random.Random(seed)
    p = random_typed_program(rng, (KSTAR,), (), 3)
    tp = type_of((KSTAR,), (), p)
    sub = random_type(rng, (), KSTAR, 2)
    got = type_of((), (), subst(p, TYPE, 0, sub))
    assert got == normalize_type(subst(tp, TYPE, 0, sub))


def test_continuation_preserves_type_beta_axiom():
    cont = continuation_instance()
    body = Ret(Abs(TVar(0), PVar(0)))
    p = TyApp(TyAbs(KSTAR, body), BOT_TYPE)
    q = step(p, Strategy.BASE)
    assert q is not None
    pi = instantiate_prog(p, cont)
    qi = instantiate_prog(q, cont)
    assert count_steps(pi, qi, cont.strategy, 4) is not None


def test_continuation_preserves_value_beta_axiom():
    cont = continuation_instance()
    ident = Abs(BOT_TYPE, PVar(0))
    tid = Fun(BOT_TYPE, BOT_TYPE)
    p = App(Abs(tid, PVar(0)), ident)
    q = step(p, Strategy.BASE)
    assert q == ident
    assert count_steps(
        instantiate_prog(p, cont), instantiate_prog(q, cont), cont.strategy, 4
    ) is not None


def test_continuation_preserves_bind_ret_applied():
    """bind-of-ret: the images agree once run against a continuation."""
    cont = continuation_instance()
    ident = Abs(BOT_TYPE, PVar(0))
    tid = Fun(BOT_TYPE, BOT_TYPE)
    p = Bind(tid, Ret(ident), Ret(PVar(0)))
    q = step(p, Strategy.BASE)

    k = PVar(0)
    lhs = App(shift(instantiate_prog(p, cont), PROG), k)
    rhs = App(shift(instantiate_prog(q, cont), PROG), k)
    n1, _ = multi_step(lhs, cont.strategy, 100)
    n2, _ = multi_step(rhs, cont.strategy, 100)
    assert n1 == n2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_identity_preserves_all_axioms_exactly(seed):
    rng = random.Random(seed)
    ident_inst = identity_instance()
    p = random_typed_program(rng, (), (), 5)
    q = step(p, Strategy.BASE)
    if q is None:
        return
    pi = instantiate_prog(p, ident_inst)
    qi = instantiate_prog(q, ident_inst)
    n1, _ = multi_step(pi, Strategy.FULL, 10_000)
    n2, _ = multi_step(qi, Strategy.FULL, 10_000)
    assert n1 == n2


def test_astnode_rejects_undeclared_fields():
    """A term class whose fields are not all terms, non-terms (kinds, sorts)
    or a variable index fails when it is defined."""
    with pytest.raises(TypeError):

        @astnode
        class Tagged(EffType):
            payload: str
            body: EffType

    with pytest.raises(TypeError):

        @astnode(binds={"kind": (TYPE,)})
        class BindsKind(EffType):
            kind: Kind
            body: EffType

    with pytest.raises(TypeError):

        @astnode(binds={"missing": (TYPE,)})
        class BindsNothing(EffType):
            body: EffType

    with pytest.raises(TypeError):

        @astnode(var=TYPE)
        class TwoIndices(EffType):
            index: int
            other: int


def test_no_unused_imports():
    """Every imported name is used in its module (``__future__`` imports
    and the re-exports of ``__init__.py`` files aside)."""
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted(p for d in ("src", "tests", "demos") for p in (root / d).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert unused == []


def test_no_unused_public_names():
    """Every public top-level function, class or constant of ``src/`` is
    referenced somewhere in ``src/``, ``tests/``, ``demos/`` or
    ``perfbench/``, by name or as an attribute; its own definition and
    the lines that import it do not count."""
    root = Path(__file__).resolve().parent.parent
    defined, used = [], set()
    for d in ("src", "tests", "demos", "perfbench"):
        for path in sorted((root / d).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            if d != "src":
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined += [
                    f"{path.relative_to(root)}:{node.lineno} {name}"
                    for name in names
                    if not name.startswith("_")
                ]
    assert [entry for entry in defined if entry.split()[-1] not in used] == []


# Every function or class-body method (``Class.method``) of ``src/`` that
# reaches itself through references among its own module's functions, by
# module.  Each recurses once per level of
# what it walks, so its depth is bounded by the recursion limit (ROADMAP
# items 4(b) and 9); ``astnode`` only names itself as a decorator factory.
# The list may only shrink: a function that stops recursing leaves it.
RECURSIVE = {
    "_astnode": {"_shift", "astnode", "shift", "subst"},
    "effhol.conversion": {"normalize"},
    "effhol.forgetful": {"erase_by"},
    "effhol.typing": {"_star", "index_of", "index_wf", "kind_of", "spec_wf", "type_of"},
    "frame": {"is_uvalue"},
    "generators": {
        "random_computation", "random_hol_prop", "random_hol_term", "random_kind",
        "random_sort", "random_spec", "random_type", "random_typed_program",
    },
    "hol.checker": {"prop_wf", "sort_of"},
    "instances": {"_instantiate", "_interpret"},
    "surface.elaborate": {"_elab", "_within"},
    "surface.printer": {"_emit"},
    "translation": {
        "_subterms_of_prop",
        "tretype", "trind", "trkind", "trspec", "trtrm", "trtype",
    },
}


def _functions(tree) -> dict:
    """The module-level functions of ``tree`` and the methods of its
    module-level classes (named ``Class.method``), each with the names of
    those it references: a function by name, a method of its own class
    through ``self``, ``cls`` or the class name."""
    fn = (ast.FunctionDef, ast.AsyncFunctionDef)
    owned = {n.name: (n, None) for n in tree.body if isinstance(n, fn)}
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            owned.update({f"{c.name}.{m.name}": (m, c.name) for m in c.body if isinstance(m, fn)})

    def refs(node, cls):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in owned:
                yield n.id
            elif (
                cls is not None
                and isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id in ("self", "cls", cls)
                and f"{cls}.{n.attr}" in owned
            ):
                yield f"{cls}.{n.attr}"

    return {name: set(refs(node, cls)) for name, (node, cls) in owned.items()}


def test_recursive_functions_are_allowlisted():
    """The functions and class-body methods of ``src/`` that reach
    themselves, directly or through other functions of their module, are
    exactly those of ``RECURSIVE``; a nested function counts as part of
    the function that contains it."""
    src = Path(__file__).resolve().parent.parent / "src" / "effreal"
    found = {}
    for path in sorted(src.rglob("*.py")):
        refs = _functions(ast.parse(path.read_text(encoding="utf-8")))
        for name in refs:
            reached, todo = set(), list(refs[name])
            while todo:
                g = todo.pop()
                if g not in reached:
                    reached.add(g)
                    todo.extend(refs[g])
            if name in reached:
                module = ".".join(path.relative_to(src).with_suffix("").parts)
                found.setdefault(module, set()).add(name)
    assert found == RECURSIVE


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_equal_trees_are_one_object(seed):
    """Equal trees built independently, reparsed from their printed text,
    copied or unpickled are the same object."""

    def build():
        rng = random.Random(seed)
        return random_closed_program(rng, size=4), random_spec(rng, (), (), 3)

    (p, tp), s = build()
    (p2, tp2), s2 = build()
    assert p is p2 and tp is tp2 and s is s2
    (form,) = parse_all(print_program(p))
    assert elaborate(SurfaceDoc(), PROGRAMS, EffEnv(), form) is p
    (form,) = parse_all(print_spec(s))
    assert elaborate(SurfaceDoc(), SPECS, EffEnv(), form) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(p)) is p


class _Shade(NonTerm):
    pass


@astnode
class _Grey(_Shade):
    depth: int


def test_keyword_calls_and_replace_are_interned():
    node = SForallProg(BOT_TYPE, SImp(BOT_SPEC, TOP_SPEC))
    assert SForallProg(binder_type=BOT_TYPE, body=SImp(lhs=BOT_SPEC, rhs=TOP_SPEC)) is node
    assert SForallProg(BOT_TYPE, body=node.body) is node
    assert dataclasses.replace(node) is node
    assert dataclasses.replace(node, body=BOT_SPEC) is SForallProg(BOT_TYPE, BOT_SPEC)
    assert _Grey(0) is _Grey(depth=0) is dataclasses.replace(_Grey(3), depth=0)
    assert _Grey(0).depth == 0 and repr(_Grey(0)) == "_Grey(depth=0)"
    with pytest.raises(TypeError):
        SImp(BOT_SPEC)
    with pytest.raises(TypeError):
        _Grey()
    with pytest.raises(TypeError):
        SImp(BOT_SPEC, TOP_SPEC, lhs=BOT_SPEC)
    with pytest.raises(TypeError):
        SImp(BOT_SPEC, TOP_SPEC, TOP_SPEC)
    with pytest.raises(TypeError):
        SImp(BOT_SPEC, TOP_SPEC, body=TOP_SPEC)


def test_a_field_default_fails_when_the_class_is_defined():
    """A node keeps its fields in slots, so a node class cannot give a field
    a default: its class statement fails."""
    with pytest.raises(ValueError, match="'depth' in __slots__ conflicts with class variable"):

        @astnode
        class _Tinted(_Shade):
            depth: int = 0


def _node_classes():
    """Every concrete node class of the package, i.e. every class made by
    ``astnode`` under ``effreal``."""
    found, todo = [], [Term, NonTerm]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "_names" in sub.__dict__ and sub.__module__.startswith("effreal."):
                found.append(sub)
    assert {UVar, Base, SImp} <= set(found)  # all three calculi are loaded
    return found


def _written(cls, name: str) -> bool:
    """Whether ``cls`` itself defines method ``name`` in a source file
    (a method generated by ``dataclass`` is compiled from a string)."""
    fn = cls.__dict__.get(name)
    return fn is not None and fn.__code__.co_filename != "<string>"


def _one_node_each():
    """One node of every concrete node class: each field holds 0 (a
    variable index) or a node already made of the field's category."""
    classes = _node_classes()
    hints = {cls: typing.get_type_hints(cls) for cls in classes}
    made = {}
    for _ in classes:
        for cls in classes:
            args = [
                0 if hints[cls][n] is int
                else next((x for x in made.values() if isinstance(x, hints[cls][n])), None)
                for n in cls._names
            ]
            if cls not in made and None not in args:
                made[cls] = cls(*args)
    assert set(made) == set(classes)
    return list(made.values())


@pytest.mark.parametrize("node", _one_node_each(), ids=lambda x: type(x).__name__)
def test_node_class_contract(node):
    """What every node class keeps of a frozen dataclass: its fields, the
    dataclass repr (unless the class writes its own), immutability, and
    copies, pickles and ``replace`` that return the node itself."""
    cls = type(node)
    names = cls._names
    assert tuple(f.name for f in dataclasses.fields(node)) == names == cls.__match_args__
    assert dataclasses.is_dataclass(node)
    assert not hasattr(node, "__dict__")
    if not _written(cls, "__repr__"):
        fields = ", ".join(f"{n}={getattr(node, n)!r}" for n in names)
        assert repr(node) == f"{cls.__qualname__}({fields})"
    for name in names + ("_nf", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(node, name)
    assert copy.copy(node) is node and copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    assert dataclasses.replace(node) is node
    assert cls(**{n: getattr(node, n) for n in names}) is node
    for n in names:
        assert dataclasses.replace(node, **{n: getattr(node, n)}) is node


def _subterms(x) -> list:
    """Every term node in ``x``, found through its dataclass fields alone."""
    stack, found = [x], []
    while stack:
        node = stack.pop()
        found.append(node)
        for f in dataclasses.fields(node):
            if isinstance(child := getattr(node, f.name), Term):
                stack.append(child)
    return found


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_pure_bit_agrees_with_a_scan(seed):
    """``_pure`` is true exactly when no ``Comp``, ``Ret``, ``Bind`` or
    ``After`` lies in the node, at every node of random types, programs,
    computations and specifications; logic and untyped nodes (whose
    returns and binds are not the effectful ones) are always pure."""
    rng = random.Random(seed)
    kappa = random_kind(rng, 1)
    for x in (
        random_type(rng, (kappa,), KSTAR, 4),
        random_typed_program(rng, (), (), 5),
        random_computation(rng, (), (), 4),
        random_spec(rng, (), (), 4),
    ):
        for node in _subterms(x):
            impure = any(isinstance(n, (Comp, Ret, Bind, After)) for n in _subterms(node))
            assert node._pure is not impure, node
    logic = random_hol_prop(rng, (random_sort(rng),), 4)
    untyped = erase(random_computation(rng, (), (), 4))
    for x in (logic, untyped):
        assert all(node._pure for node in _subterms(x))


def test_instantiating_a_pure_node_keeps_no_entry():
    """Under id and cont, a pure node is its own image in any contexts and
    adds nothing to the call's tables; an impure one is stored once, keyed
    by the context suffixes it can see."""
    from effreal.instances import _instantiate, _Memo

    kctx, tctx = (KSTAR,), (Fun(BOT_TYPE, BOT_TYPE), BOT_TYPE, BOT_TYPE)
    pure = (BOT_SPEC, TOP_SPEC, PVar(1), Fun(TVar(0), BOT_TYPE), Abs(BOT_TYPE, App(PVar(1), PVar(0))))
    impure = Ret(PVar(1))
    for inst in (identity_instance(), continuation_instance()):
        memo = _Memo()
        for x in pure:
            assert x._pure and _instantiate(x, inst, kctx, tctx, memo) is x
        assert memo.nodes == {} and memo.types == {}
        image = _instantiate(impure, inst, kctx, tctx, memo)
        assert not impure._pure and image is not impure
        assert memo.nodes == {(impure, (), tctx[-2:]): image}


def _run_python(code: str, *argv: str, python: str = sys.executable) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [python, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_processes_exit_cleanly_holding_nodes():
    """A process that still holds a 100,000-node tree when it exits, and a
    command-line run, exit 0 with nothing on stderr: releasing the intern
    table while the interpreter tears down reports nothing."""
    tree = (
        "from effreal.effhol import SImp, TOP_SPEC, BOT_SPEC\n"
        "x = BOT_SPEC\n"
        "for _ in range(100_000):\n"
        "    x = SImp(x, TOP_SPEC)\n"
    )
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "hol_basic.hol"
    cli = f"from effreal.surface.cli import main\nraise SystemExit(main(['check-hol', {str(corpus)!r}]))\n"
    for code in (tree, cli):
        r = _run_python(code)
        assert (r.returncode, r.stderr) == (0, "")


# Imports the package, builds both instances, checks the grammar's coverage,
# takes every derivation of a logic file through extraction with --derive,
# the checkers, both instances, forgetting, printing and JSON, and has one
# derivation rejected, all with the collector off from the first line.  It
# then collects and prints the number of unreachable objects and those that
# are classes from effreal or have a type from effreal.
LAYOUT_SCRIPT = """
import gc; gc.disable()
import json, sys
import effreal, effreal.frame, effreal.instances, effreal.surface
from effreal.effhol import check as eff_check
from effreal.effhol.forgetful import forget_derivation
from effreal.errors import KernelError, TemplateMissing
from effreal.hol import FALSUM, HolDerivation, Sequent, check as hol_check
from effreal.instances import continuation_instance, identity_instance, instantiate_derivation
from effreal.surface import jsonio, parse_document, print_eff_sequent
from effreal.surface.grammar import CATEGORIES, FORMS
from effreal.translation import extract_realizer

instances = identity_instance(), continuation_instance()
for cat in CATEGORIES:
    assert set(cat.base.__subclasses__()) <= set(FORMS), cat.noun
with open(sys.argv[1], encoding="utf-8") as f:
    doc = parse_document(f.read())
for d in doc.hol_derivations.values():
    try:
        res = extract_realizer(d, derive=True)
    except TemplateMissing:
        res = extract_realizer(d)
    print_eff_sequent(res.goal_triple)
    if res.derivation is not None:
        eff_check(res.derivation)
        for inst in instances:
            eff_check(instantiate_derivation(res.derivation, inst))
        hol_check(forget_derivation(res.derivation))
        jsonio.dumps(jsonio.eff_to_json(res.derivation))
try:
    hol_check(HolDerivation("Id", Sequent((), (), FALSUM)))
except KernelError:
    pass
else:
    raise AssertionError("an Id without its hypothesis was accepted")
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
ours = [
    x for x in gc.garbage
    if any(m.partition(".")[0] == "effreal"
           for m in (type(x).__module__, x.__module__ if isinstance(x, type) else ""))
]
print(json.dumps([len(gc.garbage), sorted(map(repr, ours))]))
"""


def layout_garbage(python: str = sys.executable) -> list:
    """``LAYOUT_SCRIPT``'s output when run by ``python`` on the basic logic
    corpus: the count of unreachable objects and the package's among them."""
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "hol_basic.hol"
    r = _run_python(LAYOUT_SCRIPT, str(corpus), python=python)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_a_fresh_process_leaves_no_class_or_node_to_the_collector():
    """Node classes are made once, and the library's pipeline makes no
    cycle through a node or a class of the package: with the collector off
    from the start, none of them is left unreachable, and each category's
    subclasses are the grammar's node classes."""
    assert layout_garbage()[1] == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_normal_forms_are_kept_on_the_node(seed):
    """``normalize`` is idempotent up to identity, and a normal node is
    marked as such rather than referring to itself."""
    rng = random.Random(seed)
    kappa = random_kind(rng, 1)
    redex = TApp(TAbs(kappa, random_type(rng, (kappa,), KSTAR, 3)), random_type(rng, (), kappa, 2))
    spec = random_spec(rng, (), (), 3)
    for x in (redex, spec):
        n = normalize(x)
        assert normalize(n) is n and normalize(x) is n
        assert n._nf is not n


def test_intern_table_releases_dropped_trees():
    """The table holds nodes weakly: a dropped tree leaves it, however
    deep, without overflowing the stack."""
    gc.collect()
    before = len(_TABLE)
    for depth in (3_000, 100_000):
        x = SMemBase(PVar(987_654), ComprBase(BOT_TYPE, BOT_SPEC))
        for _ in range(depth):
            x = SImp(x, TOP_SPEC)
        assert len(_TABLE) >= before + depth
        del x
        assert len(_TABLE) == before


def test_intern_table_keeps_a_rebuilt_node():
    """A removal that comes late, after the dead node's key was built again,
    leaves the new entry: the callback removes only its own reference."""
    lhs = SMemBase(PVar(876_543), ComprBase(BOT_TYPE, BOT_SPEC))
    key = (SImp, lhs, TOP_SPEC)
    x = SImp(lhs, TOP_SPEC)
    old = _TABLE[key]
    drop = old.__callback__
    del x
    assert key not in _TABLE and old() is None
    y = SImp(lhs, TOP_SPEC)
    new = _TABLE[key]
    drop(old)
    assert _TABLE[key] is new and new() is y is SImp(lhs, TOP_SPEC)
    del y
    assert key not in _TABLE


def test_node_classes_carry_no_generated_methods():
    """``dataclass`` records the fields of a node class and generates none
    of its methods; a node class may write its own ``__repr__`` only."""
    for cls in _node_classes():
        assert "__init__" not in cls.__dict__ and "__eq__" not in cls.__dict__
        for name in ("__repr__", "__setattr__", "__delattr__"):
            assert name not in cls.__dict__ or _written(cls, name) and name == "__repr__", (cls, name)


def test_reader_nodes_have_no_instance_dict():
    """The reader's atoms and lists keep their fields in slots: an input
    document's forms cost no per-node ``__dict__``."""
    (form,) = parse_all("(a (b))")
    for node in (form, form[0], form[1]):
        assert not hasattr(node, "__dict__"), type(node)


# hol/checker.py, effhol/{theory,typing,conversion}.py and _astnode.py
# (which holds shift and substitution) may shrink but not grow.  The budget
# is the exact count: a change that shrinks the base lowers it in the same
# commit.
TRUSTED_BASE = (
    "hol/checker.py",
    "effhol/theory.py",
    "effhol/typing.py",
    "effhol/conversion.py",
    "_astnode.py",
)
TRUSTED_BASE_LINES = 1116


def test_trusted_base_does_not_grow():
    src = Path(__file__).resolve().parent.parent / "src" / "effreal"
    lines = sum(len((src / f).read_text(encoding="utf-8").splitlines()) for f in TRUSTED_BASE)
    assert lines == TRUSTED_BASE_LINES


def test_only_the_check_loops_locate_a_rejection():
    """No function of the trusted base takes a ``path``: ``KernelError.at``
    locates a rejection, called only by ``hol.checker.check`` and
    ``effhol.theory.check`` at the node their loop is on."""
    src = Path(__file__).resolve().parent.parent / "src" / "effreal"
    fn = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    with_path, locators = [], []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's outermost enclosing function: ``ast.walk`` goes outside in
        for f in ast.walk(tree):
            if isinstance(f, fn):
                a = f.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
                if name in TRUSTED_BASE and "path" in [x.arg for x in params]:
                    with_path.append(f"{name}:{f.lineno}")
                for n in ast.walk(f):
                    owner.setdefault(n, getattr(f, "name", "<lambda>"))
        locators += [
            f"{module}.{owner.get(n, '<module>')}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "at"
        ]
    assert with_path == []
    assert sorted(locators) == ["effhol.theory.check", "hol.checker.check"]


def _imp_chain(n: int):
    """psi_1 -> ... -> psi_n -> psi_1 by n ImpI over Id, with fresh psi_i."""
    from effreal.hol import FALSUM, HolDerivation, Imp, Sequent

    props = [FALSUM]
    for _ in range(n - 1):
        props.append(Imp(props[-1], FALSUM))
    goal = props[0]
    d = HolDerivation("Id", Sequent((), tuple(props), goal))
    for i in range(n - 1, -1, -1):
        goal = Imp(props[i], goal)
        d = HolDerivation("ImpI", Sequent((), tuple(props[:i]), goal), (d,))
    return d


def _cut_chain(n: int):
    """psi_0, psi_0 -> psi_1, ..., psi_{n-1} -> psi_n |- psi_n by n ImpE,
    with fresh psi_i and the hypotheses in a seeded order."""
    from effreal.hol import FALSUM, HolDerivation, Imp, Sequent

    props = [FALSUM]
    for _ in range(n):
        props.append(Imp(props[-1], FALSUM))
    hyps = [props[0]] + [Imp(props[i], props[i + 1]) for i in range(n)]
    random.Random(n).shuffle(hyps)
    hyps = tuple(hyps)
    d = HolDerivation("Id", Sequent((), hyps, props[0]))
    for i in range(n):
        imp = HolDerivation("Id", Sequent((), hyps, Imp(props[i], props[i + 1])))
        d = HolDerivation("ImpE", Sequent((), hyps, props[i + 1]), (imp, d))
    return d


def test_replay_rebuilds_no_premise():
    """The ImpE replay cuts the argument's triple in: at every level of a
    cut chain it ends in ImpE, whose second premise is the argument's own
    replay, not a copy rebuilt under the function's binder."""
    d = _cut_chain(8)
    r = extract_realizer(d, derive=True).derivation
    while d.rule == "ImpE":
        arg = d.premises[1]
        assert r.rule == "ImpE"
        assert printed(r.premises[1]) == printed(extract_realizer(arg, derive=True).derivation)
        d, r = arg, r.premises[1]
    assert d.rule == "Id" and r.rule == "ModI"


def _extract_print_forget(n: int) -> None:
    from effreal.effhol import check
    from effreal.effhol.forgetful import forget_derivation
    from effreal.instances import instantiate_derivation
    from effreal.surface import jsonio, print_eff_derivation

    derived = extract_realizer(_imp_chain(n), derive=True).derivation
    assert jsonio.eff_to_json(derived)["derivation"]["rule"] == "ModI"
    assert print_eff_derivation(derived).startswith("(mod-i ")
    assert forget_derivation(derived).rule == "ImpI"
    check(derived)
    for inst in (identity_instance(), continuation_instance()):
        instance = instantiate_derivation(derived, inst)
        check(instance)
        assert print_eff_derivation(instance).count("(sequent ") == _nodes(instance)


def test_pure_map_tables_end_with_their_call():
    """Extraction with --derive, the JSON printer, the text printer (on the
    derived chain and its id and cont instances), the forgetful map, the
    checker's typing table and the two tables of ``instantiate_derivation``
    (under id and cont) last for one call only, and on no node: once the
    results are dropped, the intern table is back to its size before the
    run without the cyclic collector.  ``_shift``'s bounded cache is the
    one module-level table, so it is emptied around the run."""
    _shift.cache_clear()
    gc.collect()
    before = len(_TABLE)
    gc.disable()
    try:
        _extract_print_forget(12)
        _shift.cache_clear()
        assert len(_TABLE) == before
    finally:
        gc.enable()
