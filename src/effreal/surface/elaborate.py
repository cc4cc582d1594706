"""Elaboration of the named surface syntax into the de Bruijn core.

Documents are sequences of named, closed declarations; references to
earlier declarations are spliced in by name (per-category namespaces).
Binder names resolve to the nearest enclosing binder; shadowing resolves
nearest and emits a warning.  Derived connectives expand here, before
checking.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .._astnode import shift
from ..errors import ScopeError, SurfaceSyntaxError
from ..hol import checker as hc
from ..hol import syntax as h
from ..effhol import syntax as e
from ..effhol.reduction import Strategy
from ..effhol.theory import EffDerivation, EffSequent
from .. import frame as ef
from .sexp import Atom, SList, expect_atom, expect_list, head, parse_all

_fresh_counter = itertools.count()


def _fresh(base: str) -> str:
    return f"{base}%{next(_fresh_counter)}"


class Env:
    """One de Bruijn namespace of binder names, innermost last."""

    def __init__(self, names=()):
        self.names = list(names)

    def push(self, name: str) -> None:
        if name in self.names:
            warnings.warn(
                f"binder {name!r} shadows an outer binder; resolving to the nearest",
                stacklevel=2,
            )
        self.names.append(name)

    def pop(self) -> None:
        self.names.pop()

    def lookup(self, name: str) -> int | None:
        for i, n in enumerate(reversed(self.names)):
            if n == name:
                return i
        return None


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


def _binder(node, what: str) -> tuple[str, object]:
    b = expect_list(node, f"{what} binder (name sort)")
    if len(b) != 2:
        raise SurfaceSyntaxError(f"{what} binder needs (name annotation)", b.line, b.col)
    return expect_atom(b[0], "binder name").text, b[1]


# Sorts and the logic's terms/propositions.


def elab_sort(doc: SurfaceDoc, node) -> h.Sort:
    if isinstance(node, Atom):
        if node.text == "*":
            return h.STAR
        if node.text in doc.sorts:
            return doc.sorts[node.text]
        raise ScopeError(f"unknown sort {node.text!r} at {node.line}:{node.col}")
    if head(node) == "P" and len(node) == 2:
        return h.Pred(elab_sort(doc, node[1]))
    raise SurfaceSyntaxError("bad sort", node.line, node.col)


def elab_hol_term(doc: SurfaceDoc, env: Env, node) -> h.HolTerm:
    if isinstance(node, Atom):
        i = env.lookup(node.text)
        if i is not None:
            return h.Var(i)
        raise ScopeError(f"unknown term variable {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "compr":
            name, s = _binder(node[1], "comprehension")
            sort = elab_sort(doc, s)
            env.push(name)
            body = elab_hol_prop(doc, env, node[2])
            env.pop()
            return h.Compr(sort, body)
        case "compr0":
            return h.ComprBase(elab_hol_prop(doc, env, node[1]))
    raise SurfaceSyntaxError(f"bad term form {head(node)!r}", node.line, node.col)


def elab_hol_prop(doc: SurfaceDoc, env: Env, node) -> h.HolProp:
    if isinstance(node, Atom):
        if node.text == "bot":
            return h.FALSUM
        if node.text in doc.props:
            return doc.props[node.text]
        raise ScopeError(f"unknown proposition {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "member0":
            return h.MemBase(elab_hol_term(doc, env, node[1]))
        case "member":
            return h.Mem(
                elab_hol_term(doc, env, node[1]), elab_hol_term(doc, env, node[2])
            )
        case "imp":
            return h.Imp(
                elab_hol_prop(doc, env, node[1]), elab_hol_prop(doc, env, node[2])
            )
        case "forall":
            name, s = _binder(node[1], "universal")
            sort = elab_sort(doc, s)
            env.push(name)
            body = elab_hol_prop(doc, env, node[2])
            env.pop()
            return h.Forall(sort, body)
        case "not":
            return h.Imp(elab_hol_prop(doc, env, node[1]), h.FALSUM)
        case "and":
            # second-order encoding over the base sort
            pa = elab_hol_prop(doc, env, node[1])
            pb = elab_hol_prop(doc, env, node[2])
            u_in = h.MemBase(h.Var(0))
            return h.Forall(
                h.STAR,
                h.Imp(
                    h.Imp(shift(pa, h.TERM), h.Imp(shift(pb, h.TERM), u_in)), u_in
                ),
            )
        case "exists":
            name, s = _binder(node[1], "existential")
            sort = elab_sort(doc, s)
            env.push(name)
            body = elab_hol_prop(doc, env, node[2])
            env.pop()
            # forall v:*. (forall name:s. body => v in0) => v in0
            inner = h.Forall(sort, h.Imp(shift(body, h.TERM, 1, 1), h.MemBase(h.Var(1))))
            return h.Forall(h.STAR, h.Imp(inner, h.MemBase(h.Var(0))))
    raise SurfaceSyntaxError(f"bad proposition form {head(node)!r}", node.line, node.col)


def elab_hol_sequent(doc: SurfaceDoc, node) -> tuple[hc.Sequent, Env]:
    s = expect_list(node, "sequent")
    if head(s) != "sequent":
        raise SurfaceSyntaxError("expected (sequent ...)", s.line, s.col)
    ctx_node = expect_list(s[1], "context")
    env = Env()
    sorts = []
    for b in ctx_node.items:
        name, srt = _binder(b, "context")
        sorts.append(elab_sort(doc, srt))
        env.push(name)
    hyps_node = expect_list(s[2], "hypotheses")
    if head(hyps_node) != "hyps":
        raise SurfaceSyntaxError("expected (hyps ...)", hyps_node.line, hyps_node.col)
    hyps = tuple(elab_hol_prop(doc, env, p) for p in hyps_node.items[1:])
    goal = elab_hol_prop(doc, env, s[3])
    return hc.Sequent(tuple(sorts), hyps, goal), env


_HOL_RULES = {
    "id": ("Id", 0, None),
    "imp-i": ("ImpI", 1, None),
    "imp-e": ("ImpE", 2, None),
    "uni-i": ("UniI", 1, None),
    "uni-e": ("UniE", 1, "term"),
    "mem-i": ("MemI", 1, None),
    "mem-e": ("MemE", 1, None),
    "mem0-i": ("Mem0I", 1, None),
    "mem0-e": ("Mem0E", 1, None),
}


def elab_hol_derivation(doc: SurfaceDoc, node) -> hc.HolDerivation:
    n = expect_list(node, "derivation")
    tag = head(n)
    if tag not in _HOL_RULES:
        raise SurfaceSyntaxError(f"unknown rule {tag!r}", n.line, n.col)
    rule, arity, witness_kind = _HOL_RULES[tag]
    seq, env = elab_hol_sequent(doc, n[1])
    rest = list(n.items[2:])
    witness = None
    if witness_kind == "term":
        witness = elab_hol_term(doc, env, rest.pop(0))
    if len(rest) != arity:
        raise SurfaceSyntaxError(
            f"{tag} expects {arity} premise(s), got {len(rest)}", n.line, n.col
        )
    premises = tuple(elab_hol_derivation(doc, p) for p in rest)
    return hc.HolDerivation(rule, seq, premises, witness=witness)


# The effectful side.


def elab_kind(doc: SurfaceDoc, node) -> e.Kind:
    if isinstance(node, Atom):
        if node.text == "*":
            return e.KSTAR
        if node.text in doc.kinds:
            return doc.kinds[node.text]
        raise ScopeError(f"unknown kind {node.text!r} at {node.line}:{node.col}")
    if head(node) == "con" and len(node) == 2:
        return e.KCon(elab_kind(doc, node[1]))
    raise SurfaceSyntaxError("bad kind", node.line, node.col)


@dataclass
class EffEnv:
    kinds: Env = field(default_factory=Env)
    progs: Env = field(default_factory=Env)
    exprs: Env = field(default_factory=Env)


def elab_type(doc: SurfaceDoc, env: EffEnv, node) -> e.EffType:
    if isinstance(node, Atom):
        if node.text == "bot-type":
            return e.BOT_TYPE
        i = env.kinds.lookup(node.text)
        if i is not None:
            return e.TVar(i)
        if node.text in doc.types:
            return doc.types[node.text]
        raise ScopeError(f"unknown type {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "app":
            return e.TApp(elab_type(doc, env, node[1]), elab_type(doc, env, node[2]))
        case "tabs":
            name, k = _binder(node[1], "type abstraction")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_type(doc, env, node[2])
            env.kinds.pop()
            return e.TAbs(kind, body)
        case "fun":
            return e.Fun(elab_type(doc, env, node[1]), elab_type(doc, env, node[2]))
        case "all":
            name, k = _binder(node[1], "universal type")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_type(doc, env, node[2])
            env.kinds.pop()
            return e.TForall(kind, body)
        case "M":
            return e.Comp(elab_type(doc, env, node[1]))
        case "neg":
            return e.neg(elab_type(doc, env, node[1]))
    raise SurfaceSyntaxError(f"bad type form {head(node)!r}", node.line, node.col)


def elab_program(doc: SurfaceDoc, env: EffEnv, node) -> e.EffProgram:
    if isinstance(node, Atom):
        i = env.progs.lookup(node.text)
        if i is not None:
            return e.PVar(i)
        if node.text in doc.programs:
            return doc.programs[node.text]
        raise ScopeError(f"unknown program {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "tyabs":
            name, k = _binder(node[1], "type abstraction")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_program(doc, env, node[2])
            env.kinds.pop()
            return e.TyAbs(kind, body)
        case "lam":
            name, t = _binder(node[1], "abstraction")
            ty = elab_type(doc, env, t)
            env.progs.push(name)
            body = elab_program(doc, env, node[2])
            env.progs.pop()
            return e.Abs(ty, body)
        case "tyapp":
            return e.TyApp(elab_program(doc, env, node[1]), elab_type(doc, env, node[2]))
        case "app":
            return e.App(elab_program(doc, env, node[1]), elab_program(doc, env, node[2]))
        case "ret":
            return e.Ret(elab_program(doc, env, node[1]))
        case "bind":
            name, t = _binder(node[1], "bind")
            ty = elab_type(doc, env, t)
            first = elab_program(doc, env, node[2])
            env.progs.push(name)
            rest = elab_program(doc, env, node[3])
            env.progs.pop()
            return e.Bind(ty, first, rest)
    raise SurfaceSyntaxError(f"bad program form {head(node)!r}", node.line, node.col)


def elab_index(doc: SurfaceDoc, env: EffEnv, node) -> e.EffIndex:
    if isinstance(node, Atom):
        if node.text in doc.indices:
            return doc.indices[node.text]
        raise ScopeError(f"unknown index {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "ref0":
            return e.RefBase(elab_type(doc, env, node[1]))
        case "ref":
            return e.Ref(elab_type(doc, env, node[1]), elab_index(doc, env, node[2]))
        case "iall":
            name, k = _binder(node[1], "universal index")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_index(doc, env, node[2])
            env.kinds.pop()
            return e.IForall(kind, body)
    raise SurfaceSyntaxError(f"bad index form {head(node)!r}", node.line, node.col)


def elab_expr(doc: SurfaceDoc, env: EffEnv, node) -> e.EffExpr:
    if isinstance(node, Atom):
        i = env.exprs.lookup(node.text)
        if i is not None:
            return e.EVar(i)
        if node.text in doc.exprs:
            return doc.exprs[node.text]
        raise ScopeError(f"unknown expression {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "compr":
            xname, t = _binder(node[1], "comprehension")
            yname, s = _binder(node[2], "comprehension")
            ty = elab_type(doc, env, t)
            idx = elab_index(doc, env, s)
            env.progs.push(xname)
            env.exprs.push(yname)
            body = elab_spec(doc, env, node[3])
            env.exprs.pop()
            env.progs.pop()
            return e.Compr(ty, idx, body)
        case "compr0":
            xname, t = _binder(node[1], "comprehension")
            ty = elab_type(doc, env, t)
            env.progs.push(xname)
            body = elab_spec(doc, env, node[2])
            env.progs.pop()
            return e.ComprBase(ty, body)
        case "eall":
            name, k = _binder(node[1], "type abstraction")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_expr(doc, env, node[2])
            env.kinds.pop()
            return e.EForall(kind, body)
        case "eapp":
            return e.EApp(elab_expr(doc, env, node[1]), elab_type(doc, env, node[2]))
    raise SurfaceSyntaxError(f"bad expression form {head(node)!r}", node.line, node.col)


def elab_spec(doc: SurfaceDoc, env: EffEnv, node) -> e.EffSpec:
    if isinstance(node, Atom):
        if node.text == "bot-spec":
            return e.BOT_SPEC
        if node.text == "top-spec":
            return e.TOP_SPEC
        if node.text in doc.specs:
            return doc.specs[node.text]
        raise ScopeError(f"unknown specification {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "member":
            return e.SMem(
                elab_program(doc, env, node[1]),
                elab_expr(doc, env, node[2]),
                elab_expr(doc, env, node[3]),
            )
        case "member0":
            return e.SMemBase(
                elab_program(doc, env, node[1]), elab_expr(doc, env, node[2])
            )
        case "imp":
            return e.SImp(elab_spec(doc, env, node[1]), elab_spec(doc, env, node[2]))
        case "not":
            return e.SImp(elab_spec(doc, env, node[1]), e.BOT_SPEC)
        case "after":
            prog = elab_program(doc, env, node[1])
            name, t = _binder(node[2], "modality")
            ty = elab_type(doc, env, t)
            env.progs.push(name)
            body = elab_spec(doc, env, node[3])
            env.progs.pop()
            return e.After(prog, ty, body)
        case "allk":
            name, k = _binder(node[1], "kind universal")
            kind = elab_kind(doc, k)
            env.kinds.push(name)
            body = elab_spec(doc, env, node[2])
            env.kinds.pop()
            return e.SForallType(kind, body)
        case "allp":
            name, t = _binder(node[1], "program universal")
            ty = elab_type(doc, env, t)
            env.progs.push(name)
            body = elab_spec(doc, env, node[2])
            env.progs.pop()
            return e.SForallProg(ty, body)
        case "alle":
            name, s = _binder(node[1], "expression universal")
            idx = elab_index(doc, env, s)
            env.exprs.push(name)
            body = elab_spec(doc, env, node[2])
            env.exprs.pop()
            return e.SForallExpr(idx, body)
    raise SurfaceSyntaxError(f"bad specification form {head(node)!r}", node.line, node.col)


def elab_eff_sequent(doc: SurfaceDoc, node) -> tuple[EffSequent, EffEnv]:
    s = expect_list(node, "sequent")
    if head(s) != "sequent":
        raise SurfaceSyntaxError("expected (sequent ...)", s.line, s.col)
    env = EffEnv()
    kinds: list[e.Kind] = []
    indices: list[e.EffIndex] = []
    types: list[e.EffType] = []
    i = 1
    while i < len(s) and isinstance(s[i], SList) and len(s[i]) >= 1 and isinstance(s[i][0], Atom) and s[i][0].text in ("kinds", "indices", "types"):
        section = s[i]
        kindname = section[0].text
        for b in section.items[1:]:
            name, ann = _binder(b, kindname)
            if kindname == "kinds":
                kinds.append(elab_kind(doc, ann))
                env.kinds.push(name)
            elif kindname == "indices":
                indices.append(elab_index(doc, env, ann))
                env.exprs.push(name)
            else:
                types.append(elab_type(doc, env, ann))
                env.progs.push(name)
        i += 1
    hyps_node = expect_list(s[i], "hypotheses")
    if head(hyps_node) != "hyps":
        raise SurfaceSyntaxError("expected (hyps ...)", hyps_node.line, hyps_node.col)
    hyps = tuple(elab_spec(doc, env, p) for p in hyps_node.items[1:])
    goal = elab_spec(doc, env, s[i + 1])
    seq = EffSequent(
        e.EffContexts(tuple(kinds), tuple(indices), tuple(types)), hyps, goal
    )
    return seq, env


_EFF_RULES = {
    "id": ("Id", 0, None),
    "conv": ("Conv", 1, None),
    "imp-i": ("ImpI", 1, None),
    "imp-e": ("ImpE", 2, None),
    "uniprog-i": ("UniProgI", 1, None),
    "uniprog-e": ("UniProgE", 1, "prog"),
    "uniexp-i": ("UniExpI", 1, None),
    "uniexp-e": ("UniExpE", 1, "expr"),
    "unitype-i": ("UniTypeI", 1, None),
    "unitype-e": ("UniTypeE", 1, "type"),
    "mod-i": ("ModI", 1, None),
    "mod-e": ("ModE", 1, None),
    "mon": ("Mon", 2, None),
    "mem-i": ("MemI", 1, None),
    "mem-e": ("MemE", 1, None),
    "mem0-i": ("Mem0I", 1, None),
    "mem0-e": ("Mem0E", 1, None),
}


def elab_eff_derivation(doc: SurfaceDoc, node) -> EffDerivation:
    n = expect_list(node, "derivation")
    tag = head(n)
    if tag == "antired":
        seq, env = elab_eff_sequent(doc, n[1])
        hole = expect_list(n[2], "(hole (x T) S)")
        if head(hole) != "hole":
            raise SurfaceSyntaxError("expected (hole (x T) S)", hole.line, hole.col)
        name, t = _binder(hole[1], "hole")
        ty = elab_type(doc, env, t)
        env.progs.push(name)
        hole_spec = elab_spec(doc, env, hole[2])
        env.progs.pop()
        before = elab_program(doc, env, n[3])
        after = elab_program(doc, env, n[4])
        steps = int(expect_atom(n[5], "step count").text)
        strategy = Strategy(expect_atom(n[6], "strategy").text)
        prem = elab_eff_derivation(doc, n[7])
        return EffDerivation(
            "AntiRed",
            seq,
            (prem,),
            hole_spec=hole_spec,
            hole_type=ty,
            prog_before=before,
            prog_after=after,
            steps=steps,
            strategy=strategy,
        )
    if tag not in _EFF_RULES:
        raise SurfaceSyntaxError(f"unknown rule {tag!r}", n.line, n.col)
    rule, arity, witness_kind = _EFF_RULES[tag]
    seq, env = elab_eff_sequent(doc, n[1])
    rest = list(n.items[2:])
    wp = we = wt = None
    if witness_kind == "prog":
        wp = elab_program(doc, env, rest.pop(0))
    elif witness_kind == "expr":
        we = elab_expr(doc, env, rest.pop(0))
    elif witness_kind == "type":
        wt = elab_type(doc, env, rest.pop(0))
    if len(rest) != arity:
        raise SurfaceSyntaxError(
            f"{tag} expects {arity} premise(s), got {len(rest)}", n.line, n.col
        )
    premises = tuple(elab_eff_derivation(doc, p) for p in rest)
    return EffDerivation(
        rule, seq, premises, witness_prog=wp, witness_expr=we, witness_type=wt
    )


# Untyped terms for the evidenced-frame files.


def elab_untyped(doc: SurfaceDoc, env: Env, node) -> ef.UntypedTerm:
    if isinstance(node, Atom):
        i = env.lookup(node.text)
        if i is not None:
            return ef.UVar(i)
        if node.text in doc.ef_evidence:
            return doc.ef_evidence[node.text]
        raise ScopeError(f"unknown untyped variable {node.text!r} at {node.line}:{node.col}")
    match head(node):
        case "lam":
            b = expect_list(node[1], "binder")
            name = expect_atom(b[0], "name").text
            env.push(name)
            body = elab_untyped(doc, env, node[2])
            env.pop()
            return ef.ULam(body)
        case "app":
            return ef.UApp(
                elab_untyped(doc, env, node[1]), elab_untyped(doc, env, node[2])
            )
        case "ret":
            return ef.URet(elab_untyped(doc, env, node[1]))
        case "bind":
            b = expect_list(node[1], "binder")
            name = expect_atom(b[0], "name").text
            first = elab_untyped(doc, env, node[2])
            env.push(name)
            rest = elab_untyped(doc, env, node[3])
            env.pop()
            return ef.UBind(first, rest)
        case "pair":
            return ef.UPair(
                elab_untyped(doc, env, node[1]), elab_untyped(doc, env, node[2])
            )
        case "fst":
            return ef.UProj1(elab_untyped(doc, env, node[1]))
        case "snd":
            return ef.UProj2(elab_untyped(doc, env, node[1]))
    raise SurfaceSyntaxError(f"bad untyped form {head(node)!r}", node.line, node.col)


def parse_document(text: str) -> SurfaceDoc:
    from .instancefile import elab_instance

    doc = SurfaceDoc()
    for form in parse_all(text):
        n = expect_list(form, "declaration")
        tag = head(n)
        name = expect_atom(n[1], "name").text
        doc.order.append((tag, name))
        match tag:
            case "sort":
                doc.sorts[name] = elab_sort(doc, n[2])
            case "prop":
                doc.props[name] = elab_hol_prop(doc, Env(), n[2])
            case "hol-derivation":
                doc.hol_derivations[name] = elab_hol_derivation(doc, n[2])
            case "kind":
                doc.kinds[name] = elab_kind(doc, n[2])
            case "type":
                doc.types[name] = elab_type(doc, EffEnv(), n[2])
            case "program":
                doc.programs[name] = elab_program(doc, EffEnv(), n[2])
            case "index":
                doc.indices[name] = elab_index(doc, EffEnv(), n[2])
            case "expr":
                doc.exprs[name] = elab_expr(doc, EffEnv(), n[2])
            case "spec":
                doc.specs[name] = elab_spec(doc, EffEnv(), n[2])
            case "eff-derivation":
                doc.eff_derivations[name] = elab_eff_derivation(doc, n[2])
            case "instance":
                doc.instances[name] = elab_instance(doc, n)
            case "ef-prop":
                doc.ef_props[name] = ef.make_prop(
                    *(elab_untyped(doc, Env(), v) for v in n.items[2:])
                )
            case "ef-evidence":
                doc.ef_evidence[name] = elab_untyped(doc, Env(), n[2])
            case "ef-assert":
                # (ef-assert name PROP EVIDENCE PROP)
                doc.ef_asserts.append(
                    (
                        name,
                        doc.ef_props[expect_atom(n[2], "proposition name").text],
                        doc.ef_evidence[expect_atom(n[3], "evidence name").text],
                        doc.ef_props[expect_atom(n[4], "proposition name").text],
                    )
                )
            case _:
                raise SurfaceSyntaxError(f"unknown declaration {tag!r}", n.line, n.col)
    return doc
