"""Declarative pure-instance descriptions.

A file instance has a strategy and the four construct templates, each once:

    (instance NAME
      (strategy base|cbn|full)
      (comp (T) TYPE)
      (ret (T p) PROGRAM)
      (bind (T1 T2 p1 rest) PROGRAM)
      (after (T p body) SPEC))

Each call of a construct elaborates its template again, with every
parameter standing for its actual piece: the elaborator splices the piece
in, shifted across the template binders in scope where the parameter
appears.  ``rest`` and ``body`` stand for terms with one free program
variable (the bound result), which the innermost program binder in scope
captures; one with no program binder in scope is reported as
TemplateMissing.  A binder of the template wins over a parameter of the
same name, and a parameter over a declaration.  A template sees the
declarations before its instance, and is elaborated once when the file
loads, so a bad one is rejected there and a shadowing binder warns there
only, not again at each call.  ``corpus/instance_cont.inst``
declares the built-in continuation instance this way.

File instances leave the instance's ``templates`` mapping empty: they
carry no modality-law derivation templates, so instantiating a derivation
that uses ModI/ModE/Mon reports TemplateMissing, while types, programs,
specifications and modality-free derivations instantiate fully.
"""

from __future__ import annotations

import warnings

from .._astnode import shift
from ..errors import ShadowWarning, SurfaceSyntaxError, TemplateMissing
from ..effhol import syntax as e
from ..effhol.syntax import EXPR, PROG, TYPE
from ..instances import PureInstance
from .elaborate import EffEnv, SurfaceDoc, elaborate
from .grammar import CATEGORIES, PROGRAMS, SPECS, STRATEGY, TYPES
from .sexp import expect_args, expect_atom, expect_list, head

# What each parameter category stands for while a template is checked at load.
_PLACEHOLDER = {TYPES: e.TVar(0), PROGRAMS: e.PVar(0), SPECS: e.TOP_SPEC}
# The four constructs: tag, category, and per parameter its name, its
# category and, for a term whose program variable 0 is captured, the
# message reporting an occurrence with no program binder in scope.
_CONSTRUCTS = (
    ("comp", TYPES, (("T", TYPES, None),)),
    ("ret", PROGRAMS, (("T", TYPES, None), ("p", PROGRAMS, None))),
    ("bind", PROGRAMS, (
        ("T1", TYPES, None), ("T2", TYPES, None), ("p1", PROGRAMS, None),
        ("rest", PROGRAMS, "template uses the result parameter outside its binder"),
    )),
    ("after", SPECS, (
        ("T", TYPES, None), ("p", PROGRAMS, None),
        ("body", SPECS, "the body parameter must sit under its program binder"),
    )),
)
# Each section of an instance, and the number of its arguments.
_SECTIONS = {"strategy": 1, **{tag: 2 for tag, _, _ in _CONSTRUCTS}}


def _sections(node) -> dict:
    """The sections of an instance by tag, each with its arguments; an
    unknown, repeated or missing section is an error."""
    found = {}
    for item in node.items[2:]:
        s = expect_list(item, "instance section")
        tag = head(s)
        if tag not in _SECTIONS or tag in found:
            what = "repeated" if tag in found else "unknown"
            raise SurfaceSyntaxError(f"{what} instance section ({tag} ...)", s.line, s.col)
        found[tag] = expect_args(s, _SECTIONS[tag])
    for tag in _SECTIONS:
        if tag not in found:
            raise SurfaceSyntaxError(f"instance is missing the ({tag} ...) section", node.line, node.col)
    return found


def _params(section, expected: tuple[str, ...]) -> None:
    names = tuple(
        expect_atom(a, "parameter").text
        for a in expect_list(section[1], "parameters").items
    )
    if names != expected:
        raise SurfaceSyntaxError(
            f"{head(section)} parameters must be {expected}, got {names}",
            section.line,
            section.col,
        )


def _piece(x, misplaced: str | None):
    """The splice of the actual ``x``: given the template binders in scope
    per namespace (type, program, expression), ``x`` shifted across them.
    With a ``misplaced`` message, the innermost program binder captures
    ``x``'s program variable 0."""
    bound = misplaced is not None

    def splice(depths):
        dt, dp, de = depths
        if dp < bound:
            raise TemplateMissing(misplaced)
        return shift(shift(shift(x, TYPE, dt), PROG, dp - bound, bound), EXPR, de)

    return splice


def _template(tables, section, cat, params):
    """The construct of an instance ``section``: a function of the actual
    pieces, elaborating the template under the declaration ``tables``."""
    _params(section, tuple(name for name, _, _ in params))

    def elab(actuals):
        pieces = {
            (pcat, name): _piece(x, misplaced)
            for (name, pcat, misplaced), x in zip(params, actuals)
        }
        return elaborate(SurfaceDoc(**tables, pieces=pieces), cat, EffEnv(), section[2])

    def construct(*actuals):
        with warnings.catch_warnings():  # the load below warned already
            warnings.simplefilter("ignore", ShadowWarning)
            return elab(actuals)

    elab(tuple(_PLACEHOLDER[pcat] for _, pcat, _ in params))
    return construct


def elab_instance(doc, node) -> PureInstance:
    name = expect_atom(node[1], "name").text
    sections = _sections(node)
    strat_s = sections["strategy"]
    strat = STRATEGY.read(expect_atom(strat_s[1], "strategy").text, strat_s)
    # the declarations so far, which later ones leave as they are
    tables = {c.store: dict(getattr(doc, c.store)) for c in CATEGORIES if c.store}
    comp, ret, bind, after = (
        _template(tables, sections[tag], cat, params) for tag, cat, params in _CONSTRUCTS
    )
    return PureInstance(
        name=name, strategy=strat, comp_type=comp, ret_prog=ret, bind_prog=bind, after_spec=after
    )
