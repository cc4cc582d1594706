"""Elaboration of the named surface syntax into the de Bruijn core.

Documents are sequences of named, closed declarations; references to
earlier declarations are spliced in by name (per-category namespaces).
Binder names resolve to the nearest enclosing binder; shadowing resolves
nearest and emits a warning.  Every form is read by the layout rule of
``grammar`` and must have exactly the arguments its layout has; only the
derived connectives below are written out, and they expand here, before
checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .._astnode import shift
from ..errors import ScopeError, ShadowWarning, SurfaceSyntaxError
from ..hol import syntax as h
from ..effhol import syntax as e
from .. import frame as ef
from ..walk import walk
from .grammar import (
    ANNOTATES,
    CALCULI,
    CATEGORIES,
    EFF,
    FORMS,
    PROPS,
    SORTS,
    SPECS,
    TYPES,
    UNTYPED,
    Calculus,
    Literal,
)
from .sexp import Atom, expect_args, expect_atom, expect_list, head, read_forms


class Env:
    """One de Bruijn namespace of binder names, innermost last."""

    def __init__(self, names=()):
        self.names = list(names)

    @property
    def slots(self) -> tuple[Env, ...]:
        return (self,)

    def push(self, name: str, at=None) -> None:
        """Bind ``name``, read at the form ``at``, where a shadowing binder
        is reported (at 1:1 without one)."""
        if name in self.names:
            line, col = (at.line, at.col) if at is not None else (1, 1)
            warnings.warn(ShadowWarning(name, line, col), stacklevel=2)
        self.names.append(name)

    def pop(self) -> None:
        self.names.pop()

    def lookup(self, name: str) -> int | None:
        names = self.names
        for i in range(len(names) - 1, -1, -1):
            if names[i] == name:
                return len(names) - 1 - i
        return None


@dataclass
class EffEnv:
    kinds: Env = field(default_factory=Env)
    progs: Env = field(default_factory=Env)
    exprs: Env = field(default_factory=Env)

    @property
    def slots(self) -> tuple[Env, ...]:
        """The names per namespace slot (type, program, expression)."""
        return (self.kinds, self.progs, self.exprs)


@dataclass
class SurfaceDoc:
    sorts: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    hol_derivations: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)
    types: dict = field(default_factory=dict)
    programs: dict = field(default_factory=dict)
    indices: dict = field(default_factory=dict)
    exprs: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)
    eff_derivations: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    ef_props: dict = field(default_factory=dict)
    ef_evidence: dict = field(default_factory=dict)
    ef_asserts: list = field(default_factory=list)
    order: list = field(default_factory=list)
    # (category, name) -> splice(depths): the parameters of an instance
    # template, given the template binders in scope per namespace slot
    pieces: dict = field(default_factory=dict)


def _tagged(node, tag: str) -> tuple:
    """The arguments of the form ``(tag ...)``."""
    n = expect_list(node, f"({tag} ...)")
    if head(n) != tag:
        raise SurfaceSyntaxError(f"expected ({tag} ...)", n.line, n.col)
    return n.items[1:]


def _binder(node, annotated: bool) -> tuple[Atom, object]:
    """The name atom of a binder and its annotation."""
    b = expect_list(node, "binder")
    if len(b) != 1 + annotated:
        shape = "(name annotation)" if annotated else "(name)"
        raise SurfaceSyntaxError(f"a binder here is {shape}", b.line, b.col)
    return expect_atom(b[0], "binder name"), b[1] if annotated else None


def _within(doc, cat, envs, node, bound):
    """Elaborate ``node`` under the binders ``bound``, (namespace, name
    atom) pairs."""
    for ns, name in bound:
        envs[ns.slot].push(name.text, name)
    x = _elab(doc, cat, envs, node)
    for ns, _ in bound:
        envs[ns.slot].pop()
    return x


def _elab(doc: SurfaceDoc, cat, envs: tuple[Env, ...], node):
    """Elaborate ``node`` as a member of ``cat``; ``envs`` holds the binder
    names per namespace slot of its calculus."""
    if isinstance(node, Atom):
        atoms, var, slot, store = _LEAVES[cat]
        x = atoms.get(node.text)
        if x is not None:
            return x
        if var is not None:
            i = envs[slot].lookup(node.text)
            if i is not None:
                return var(i)
        splice = doc.pieces.get((cat, node.text))
        if splice is not None:
            return splice(tuple(len(env.names) for env in envs))
        if store is not None and node.text in getattr(doc, store):
            return getattr(doc, store)[node.text]
        raise ScopeError(f"unknown {cat.noun} {node.text!r} at {node.line}:{node.col}")
    tag = head(node)
    form = cat.forms.get(tag)
    if form is None:
        sugar = _SUGAR.get((cat, tag))
        if sugar is None:
            raise SurfaceSyntaxError(f"bad {cat.noun} form {tag!r}", node.line, node.col)
        return sugar(doc, envs, node)
    steps = _STEPS[form]
    expect_args(node, len(steps))
    args = []
    names = {}
    for (name, fcat, binds, bound), arg in zip(steps, node.items[1:]):
        if binds is not None:
            names[binds], ann = _binder(arg, name is not None)
            if name is not None:
                args.append(_elab(doc, fcat, envs, ann))
        elif bound:
            args.append(_within(doc, fcat, envs, arg, [(ns, names[ns]) for ns in bound]))
        else:
            args.append(_elab(doc, fcat, envs, arg))
    return form.cls(*args)


# Per category: bare-tag forms and derived constants, the variable class
# and the slot of its namespace, and the SurfaceDoc table of named members.
_LEAVES = {
    c: (dict(c.atoms), c.var, c.var and FORMS[c.var].var.slot, c.store) for c in CATEGORIES
}
_LEAVES[PROPS][0]["bot"] = h.FALSUM
_LEAVES[TYPES][0]["bot-type"] = e.BOT_TYPE
_LEAVES[SPECS][0].update({"bot-spec": e.BOT_SPEC, "top-spec": e.TOP_SPEC})
# Per form: its items, each child with the namespaces it is bound in.
_STEPS = {
    form: tuple(
        (i.field, i.category, i.binds, tuple(ns for ns, n in zip(c.family, i.under) if n))
        for i in form.items
    )
    for c in CATEGORIES
    for form in c.forms.values()
}


# The derived connectives.


def _not(doc, envs, node):
    return h.Imp(_elab(doc, PROPS, envs, expect_args(node, 1)[1]), h.FALSUM)


def _and(doc, envs, node):
    # second-order encoding over the base sort
    expect_args(node, 2)
    pa = _elab(doc, PROPS, envs, node[1])
    pb = _elab(doc, PROPS, envs, node[2])
    u_in = h.MemBase(h.Var(0))
    return h.Forall(
        h.STAR, h.Imp(h.Imp(shift(pa, h.TERM), h.Imp(shift(pb, h.TERM), u_in)), u_in)
    )


def _exists(doc, envs, node):
    name, s = _binder(expect_args(node, 2)[1], True)
    sort = _elab(doc, SORTS, envs, s)
    body = _within(doc, PROPS, envs, node[2], [(h.TERM, name)])
    # forall v:*. (forall name:s. body => v in0) => v in0
    inner = h.Forall(sort, h.Imp(shift(body, h.TERM, 1, 1), h.MemBase(h.Var(1))))
    return h.Forall(h.STAR, h.Imp(inner, h.MemBase(h.Var(0))))


def _neg(doc, envs, node):
    return e.neg(_elab(doc, TYPES, envs, expect_args(node, 1)[1]))


def _not_spec(doc, envs, node):
    return e.SImp(_elab(doc, SPECS, envs, expect_args(node, 1)[1]), e.BOT_SPEC)


_SUGAR = {
    (PROPS, "not"): _not,
    (PROPS, "and"): _and,
    (PROPS, "exists"): _exists,
    (TYPES, "neg"): _neg,
    (SPECS, "not"): _not_spec,
}


# Sequents and derivations.


def elab_sequent(doc: SurfaceDoc, calc: Calculus, node):
    """The sequent and the environment of names its formulas sit under."""
    _tagged(node, "sequent")
    s = expect_args(node, len(calc.sections) + 2)
    env = EffEnv() if calc is EFF else Env()
    envs = env.slots
    contexts = []
    for (tag, cat), section in zip(calc.sections, s.items[1:]):
        entries = _tagged(section, tag) if tag else expect_list(section, "context").items
        ctx = []
        for b in entries:
            name, ann = _binder(b, True)
            ctx.append(_elab(doc, cat, envs, ann))
            envs[ANNOTATES[cat].slot].push(name.text, name)
        contexts.append(tuple(ctx))
    hyps = tuple(_elab(doc, calc.formula, envs, p) for p in _tagged(s[-2], "hyps"))
    goal = _elab(doc, calc.formula, envs, s[-1])
    return calc.sequent(tuple(contexts), hyps, goal), env


_RULE_OF_TAG = {c: {r.tag: name for name, r in c.rules.items()} for c in CALCULI}


def elab_derivation(doc: SurfaceDoc, calc: Calculus, node):
    return walk(_derivation, doc, calc, node)


def _derivation(doc: SurfaceDoc, calc: Calculus, node):
    n = expect_list(node, "derivation")
    tag = head(n)
    if tag not in _RULE_OF_TAG[calc]:
        raise SurfaceSyntaxError(f"unknown rule {tag!r}", n.line, n.col)
    name = _RULE_OF_TAG[calc][tag]
    rule = calc.rules[name]
    expect_args(n, 1 + calc.arity(name))
    seq, env = elab_sequent(doc, calc, n[1])
    envs = env.slots
    args = iter(n.items[2:])
    witnesses = iter(rule.witnesses)
    found = {}
    for w in witnesses:
        arg = next(args)
        if isinstance(w.category, Literal):
            found[w.field] = w.category.read(expect_atom(arg, w.key).text, arg)
        elif w.binds:
            _tagged(arg, w.binds)
            group = expect_args(arg, 2)
            bname, ann = _binder(group[1], True)
            found[w.field] = _elab(doc, w.category, envs, ann)
            body = next(witnesses)
            ns = ANNOTATES[w.category]
            found[body.field] = _within(doc, body.category, envs, group[2], [(ns, bname)])
        else:
            found[w.field] = _elab(doc, w.category, envs, arg)
    premises = []
    for p in args:
        premises.append((yield doc, calc, p))
    return calc.derivation(name, seq, tuple(premises), **found)


def elaborate(doc: SurfaceDoc, cat, env, node):
    """Elaborate ``node`` as a member of ``cat`` under ``env``, an ``Env``
    (logic, untyped) or an ``EffEnv``."""
    return _elab(doc, cat, env.slots, node)


# Documents.

_DECLARATIONS = {c.decl: c for c in CATEGORIES + CALCULI if c.decl}


def _named(table: dict, node, what: str):
    a = expect_atom(node, f"{what} name")
    if a.text not in table:
        raise ScopeError(f"unknown {what} {a.text!r} at {a.line}:{a.col}")
    return table[a.text]


def parse_document(text: str) -> SurfaceDoc:
    """The declarations of ``text``, each elaborated as soon as the reader
    closes it and dropped before it reads on.  A reader error anywhere in
    the text is reported before an elaboration error ahead of it."""
    doc = SurfaceDoc()
    declared = set()  # each tag fills one table
    forms = read_forms(text)
    try:
        for form in forms:
            _declare(doc, declared, form)
    except Exception:
        for _ in forms:  # read on: a reader error there wins
            pass
        raise
    return doc


def _declare(doc: SurfaceDoc, declared: set, form) -> None:
    n = expect_list(form, "declaration")
    tag = head(n)
    if len(n) < 2:
        raise SurfaceSyntaxError(f"{tag} declaration needs a name", n.line, n.col)
    name = expect_atom(n[1], "name").text
    if (tag, name) in declared:
        raise SurfaceSyntaxError(f"{tag} {name!r} is declared twice", n.line, n.col)
    declared.add((tag, name))
    doc.order.append((tag, name))
    what = _DECLARATIONS.get(tag)
    if isinstance(what, Calculus):
        getattr(doc, what.store)[name] = elab_derivation(doc, what, expect_args(n, 2)[2])
    elif what is not None:
        envs = tuple(Env() for _ in what.family)
        getattr(doc, what.store)[name] = _elab(doc, what, envs, expect_args(n, 2)[2])
    elif tag == "instance":
        from .instancefile import elab_instance

        doc.instances[name] = elab_instance(doc, n)
    elif tag == "ef-prop":
        values = (_elab(doc, UNTYPED, (Env(),), v) for v in n.items[2:])
        doc.ef_props[name] = ef.make_prop(*values)
    elif tag == "ef-assert":
        # (ef-assert name PROP EVIDENCE PROP)
        expect_args(n, 4)
        doc.ef_asserts.append(
            (
                name,
                _named(doc.ef_props, n[2], "proposition"),
                _named(doc.ef_evidence, n[3], "evidence"),
                _named(doc.ef_props, n[4], "proposition"),
            )
        )
    else:
        raise SurfaceSyntaxError(f"unknown declaration {tag!r}", n.line, n.col)
