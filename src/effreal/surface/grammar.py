"""The surface grammar of both logics and of the erasure target, as one table.

``CATEGORIES`` maps each syntax category's surface tags to its node
classes.  Everything else about a form is derived from the node class, its
fields and the binder layout ``@astnode`` records, by one rule:

* a node prints as ``(tag field ...)`` in field order, and a node without
  fields as its bare tag;
* a ``binder_*`` field prints as ``(NAME annotation)`` and binds NAME in
  the namespace that its annotation's category annotates: a kind binds a
  type variable, a type a program variable, an index an expression
  variable and a sort a term variable (``ANNOTATES``);
* a binder without an annotation field (the untyped ``lam`` and ``bind``)
  prints as ``(NAME)`` right after the tag;
* binder names are the namespace's prefix followed by the number of
  enclosing binders of that namespace, so a variable prints as the prefix
  followed by ``depth - 1 - index`` and parse(print(x)) == x.

Each form's ``scope`` is derived too: the namespaces whose binder depths
the text of its category's members can read (those of its variables and
binders, and its children's), which must be a prefix of its calculus's
namespaces.  So a printed type or index depends on the type depth only,
and a program on the type and program depths.

Sequent contexts follow the same binder rule, entry by entry.  ``HOL`` and
``EFF`` describe each calculus's sequents and, per derivation rule, its
surface tag and witnesses; a rule's premise count is the length of its
entry in the kernel's premise table.  The text and JSON forms of
derivations are both read from them.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .. import frame as ef
from .._astnode import Namespace
from ..errors import SurfaceSyntaxError
from ..effhol import syntax as e
from ..effhol.reduction import Strategy
from ..effhol.theory import EFF_PREMISES, EffDerivation, EffSequent
from ..hol import checker as hc
from ..hol import syntax as h

# The binder-name prefix of each namespace.
PREFIX = {h.TERM: "u", e.TYPE: "X", e.PROG: "x", e.EXPR: "y", ef.UNTYPED: "v"}


def binder_name(ns: Namespace, depth: int) -> str:
    """The name of a binder of ``ns`` found under ``depth`` binders of ``ns``."""
    return f"{PREFIX[ns]}{depth}"


class Item(typing.NamedTuple):
    """One argument of a form: a child (``binds`` None, ``under`` counting
    the node's binders above it per namespace slot), an annotated binder
    (``field`` holds the annotation) or an unannotated binder (``field``
    None)."""

    field: str | None
    category: Category | None
    binds: Namespace | None = None
    under: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class Form:
    tag: str
    cls: type
    var: Namespace | None  # set for variable classes
    items: tuple[Item, ...]
    scope: int = 0  # derived: its text reads the binder depths of family[:scope] only


@dataclass(eq=False)
class Category:
    noun: str  # in messages, and the JSON key of a witness of this category
    base: type
    tags: dict  # surface tag -> node class
    var: type | None = None  # the variable class
    family: tuple[Namespace, ...] = ()  # the namespaces of its calculus
    decl: str | None = None  # declaration keyword of named members
    store: str | None = None  # the SurfaceDoc table holding them
    forms: dict = field(default_factory=dict)  # tag -> Form, derived
    atoms: dict = field(default_factory=dict)  # tag -> node of a bare-tag form


_HOL, _EFF = h.TERM.family, e.TYPE.family

SORTS = Category("sort", h.Sort, {"*": h.Base, "P": h.Pred}, decl="sort", store="sorts")
TERMS = Category("term", h.HolTerm, {"compr": h.Compr, "compr0": h.ComprBase}, h.Var, _HOL)
PROPS = Category(
    "proposition",
    h.HolProp,
    {"member0": h.MemBase, "member": h.Mem, "imp": h.Imp, "forall": h.Forall},
    None, _HOL, "prop", "props",
)
KINDS = Category("kind", e.Kind, {"*": e.KBase, "con": e.KCon}, decl="kind", store="kinds")
TYPES = Category(
    "type",
    e.EffType,
    {"app": e.TApp, "tabs": e.TAbs, "fun": e.Fun, "all": e.TForall, "M": e.Comp},
    e.TVar, _EFF, "type", "types",
)
PROGRAMS = Category(
    "program",
    e.EffProgram,
    {"tyabs": e.TyAbs, "lam": e.Abs, "tyapp": e.TyApp, "app": e.App, "ret": e.Ret, "bind": e.Bind},
    e.PVar, _EFF, "program", "programs",
)
INDICES = Category(
    "index",
    e.EffIndex,
    {"ref0": e.RefBase, "ref": e.Ref, "iall": e.IForall},
    None, _EFF, "index", "indices",
)
EXPRS = Category(
    "expression",
    e.EffExpr,
    {"compr": e.Compr, "compr0": e.ComprBase, "eall": e.EForall, "eapp": e.EApp},
    e.EVar, _EFF, "expr", "exprs",
)
SPECS = Category(
    "specification",
    e.EffSpec,
    {
        "member": e.SMem, "member0": e.SMemBase, "imp": e.SImp, "after": e.After,
        "allk": e.SForallType, "allp": e.SForallProg, "alle": e.SForallExpr,
    },
    None, _EFF, "spec", "specs",
)
UNTYPED = Category(
    "untyped term",
    ef.UntypedTerm,
    {
        "lam": ef.ULam, "app": ef.UApp, "ret": ef.URet, "bind": ef.UBind,
        "pair": ef.UPair, "fst": ef.UProj1, "snd": ef.UProj2,
    },
    ef.UVar, ef.UNTYPED.family, "ef-evidence", "ef_evidence",
)

CATEGORIES = (SORTS, TERMS, PROPS, KINDS, TYPES, PROGRAMS, INDICES, EXPRS, SPECS, UNTYPED)

# The namespace a binder annotated with a member of the category binds.
ANNOTATES = {SORTS: h.TERM, KINDS: e.TYPE, TYPES: e.PROG, INDICES: e.EXPR}

_CATEGORY_OF = {c.base: c for c in CATEGORIES}
FORMS: dict[type, Form] = {}


def _derive(tag: str, cls: type, cat: Category) -> Form:
    var = getattr(cls, "_var", None)
    if var is not None:
        return Form(tag, cls, var, ())
    hints = typing.get_type_hints(cls)
    under = dict(getattr(cls, "_fields", ()))
    items = []
    for name in cls._names:
        c = _CATEGORY_OF[hints[name]]
        if name.startswith("binder_"):
            items.append(Item(name, c, binds=ANNOTATES[c]))
        else:
            items.append(Item(name, c, under=under.get(name) or ()))
    # per namespace: the binders some child sits under, and the annotated ones
    need = [max((i.under[s] for i in items if i.under), default=0) for s in range(len(cat.family))]
    have = [sum(i.binds is ns for i in items) for ns in cat.family]
    items[:0] = [Item(None, None, binds=ns) for ns, n, a in zip(cat.family, need, have) if n > a]
    bad = max(need, default=0) > 1 or any(a > n for n, a in zip(need, have))
    seen = set()
    for i in items:  # a child comes after the binders it sits under
        seen.add(i.binds)
        bad = bad or any(n and ns not in seen for ns, n in zip(cat.family, i.under))
    if bad:
        raise TypeError(f"{cls.__name__}: its binders do not follow the layout rule")
    return Form(tag, cls, None, tuple(items))


for _cat in CATEGORIES:
    if _cat.var is not None:
        FORMS[_cat.var] = _derive("", _cat.var, _cat)
    for _tag, _cls in _cat.tags.items():
        _form = FORMS[_cls] = _derive(_tag, _cls, _cat)
        if _form.items:
            _cat.forms[_tag] = _form
        else:
            _cat.atoms[_tag] = _cls()


def _reads() -> dict:
    """Per category, the namespaces whose binder depths a member's text can
    read: those of its variables and binders, and its children's, as a
    least fixed point."""
    reads = {c: {FORMS[c.var].var} if c.var else set() for c in CATEGORIES}
    while True:
        before = sum(map(len, reads.values()))
        for c in CATEGORIES:
            for form in c.forms.values():
                for i in form.items:
                    reads[c] |= {i.binds} - {None} | reads.get(i.category, set())
        if sum(map(len, reads.values())) == before:
            return reads


for _cat, _ns in _reads().items():
    if _ns != set(_cat.family[: len(_ns)]):
        raise TypeError(f"{_cat.noun}: the namespaces it reads are not a prefix of its family")
    for _tag, _form in _cat.forms.items():
        _cat.forms[_tag] = FORMS[_form.cls] = replace(_form, scope=len(_ns))


@dataclass(frozen=True)
class Literal:
    """A witness written as a bare atom: its value read from text or JSON,
    and the JSON value written for it.  Only the spelling the printer
    writes is read: in text the ``str`` of that JSON value, in JSON the
    value itself, of the same type."""

    noun: str
    parse: typing.Callable
    dump: typing.Callable

    def read(self, value, at=None, text: bool = True):
        """``value`` read; a bad one is reported at the form ``at``, or at
        1:1 without one."""
        try:
            got = self.parse(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            spelt = str(self.dump(got)) if text else self.dump(got)
            if type(spelt) is type(value) and spelt == value:
                return got
        line, col = (at.line, at.col) if at is not None else (1, 1)
        raise SurfaceSyntaxError(f"bad {self.noun} {value!r}", line, col)


def _count(value) -> int:
    if (n := int(value)) < 0:
        raise ValueError(value)
    return n


STEPS = Literal("step count", _count, int)
STRATEGY = Literal("strategy", Strategy, attrgetter("value"))


@dataclass(frozen=True)
class Witness:
    """A derivation node's witness: JSON key, node attribute and category.
    ``binds`` marks a binder annotation: the witness after it sits under
    the name it binds, and the two print as ``(binds (NAME this) next)``."""

    key: str
    field: str
    category: Category | Literal
    binds: str | None = None


@dataclass(frozen=True)
class Rule:
    tag: str
    witnesses: tuple[Witness, ...] = ()


@dataclass(frozen=True, eq=False)
class Calculus:
    """Sequents and derivation rules of one logic.  A sequent prints as
    ``(sequent SECTION... (hyps FORMULA...) FORMULA)``; each section lists
    one context's entries as binders, under its tag (or none)."""

    name: str
    decl: str
    store: str
    sections: tuple[tuple[str | None, Category], ...]
    formula: Category
    rules: dict[str, Rule]
    premises: dict[str, tuple[bool, ...]]  # the kernel's premise table: one entry per premise
    contexts: typing.Callable  # sequent -> tuple of contexts, one per section
    sequent: typing.Callable  # (contexts, hyps, goal) -> sequent
    derivation: type

    def arity(self, rule: str) -> int:
        """Arguments of a rule's text form after the sequent."""
        witnesses = self.rules[rule].witnesses
        grouped = sum(1 for w in witnesses if w.binds)
        return len(witnesses) - grouped + len(self.premises[rule])

    def depth(self, contexts) -> tuple[int, ...]:
        """The binder depths at a sequent's formulas."""
        depth = [0] * len(self.formula.family)
        for (_, cat), entries in zip(self.sections, contexts):
            depth[ANNOTATES[cat].slot] = len(entries)
        return tuple(depth)


HOL = Calculus(
    "hol",
    "hol-derivation",
    "hol_derivations",
    ((None, SORTS),),
    PROPS,
    {
        "Id": Rule("id"), "ImpI": Rule("imp-i"), "ImpE": Rule("imp-e"),
        "UniI": Rule("uni-i"), "UniE": Rule("uni-e", (Witness("term", "witness", TERMS),)),
        "MemI": Rule("mem-i"), "MemE": Rule("mem-e"),
        "Mem0I": Rule("mem0-i"), "Mem0E": Rule("mem0-e"),
    },
    hc.HOL_PREMISES,
    lambda seq: (seq.ctx,),
    lambda ctxs, hyps, goal: hc.Sequent(ctxs[0], hyps, goal),
    hc.HolDerivation,
)

EFF = Calculus(
    "effhol",
    "eff-derivation",
    "eff_derivations",
    (("kinds", KINDS), ("indices", INDICES), ("types", TYPES)),
    SPECS,
    {
        "Id": Rule("id"), "Conv": Rule("conv"), "ImpI": Rule("imp-i"), "ImpE": Rule("imp-e"),
        "UniProgI": Rule("uniprog-i"),
        "UniProgE": Rule("uniprog-e", (Witness("program", "witness", PROGRAMS),)),
        "UniExpI": Rule("uniexp-i"),
        "UniExpE": Rule("uniexp-e", (Witness("expression", "witness", EXPRS),)),
        "UniTypeI": Rule("unitype-i"),
        "UniTypeE": Rule("unitype-e", (Witness("type", "witness", TYPES),)),
        "ModI": Rule("mod-i"), "ModE": Rule("mod-e"), "Mon": Rule("mon"),
        "MemI": Rule("mem-i"), "MemE": Rule("mem-e"),
        "Mem0I": Rule("mem0-i"), "Mem0E": Rule("mem0-e"),
        # (antired SEQ (hole (x T) S) BEFORE AFTER STEPS STRATEGY PREMISE)
        "AntiRed": Rule("antired", (
            Witness("hole_type", "hole_type", TYPES, binds="hole"),
            Witness("hole_spec", "hole_spec", SPECS),
            Witness("before", "prog_before", PROGRAMS),
            Witness("after", "prog_after", PROGRAMS),
            Witness("steps", "steps", STEPS),
            Witness("strategy", "strategy", STRATEGY),
        )),
    },
    EFF_PREMISES,
    lambda seq: (seq.ctxs.kinds, seq.ctxs.indices, seq.ctxs.types),
    lambda ctxs, hyps, goal: EffSequent(e.EffContexts(*ctxs), hyps, goal),
    EffDerivation,
)

CALCULI = (HOL, EFF)
