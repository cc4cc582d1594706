"""Declarative pure-instance descriptions.

A file instance supplies the four construct templates and a strategy:

    (instance NAME
      (strategy base|cbn|full)
      (comp (T) TYPE)
      (ret (T p) PROGRAM)
      (bind (T1 T2 p1 rest) PROGRAM)
      (after (T p body) SPEC))

Template parameters are bound as variables of the appropriate namespace;
``rest`` and ``body`` stand for terms with one free program variable (the
bound result), and their occurrences must sit with the designated binder
as the innermost program binder — both shipped instances have this shape.
``body`` is spliced wherever the atom ``body`` appears in specification
position.

File instances leave the instance's ``templates`` mapping empty: they
carry no modality-law derivation templates, so instantiating a derivation
that uses ModI/ModE/Mon reports TemplateMissing, while types, programs,
specifications and modality-free derivations instantiate fully.
"""

from __future__ import annotations

from operator import add

from .._astnode import map_children, shift
from ..errors import SurfaceSyntaxError, TemplateMissing
from ..effhol import syntax as e
from ..effhol.syntax import EXPR, PROG, TYPE
from ..instances import PureInstance
from .grammar import STRATEGY
from .sexp import expect_args, expect_atom, expect_list, head

# A recognizable spec leaf standing for the body parameter; indices far
# beyond anything desk-scale files produce.
BODY_SENTINEL = e.SMemBase(e.PVar(987654321), e.EVar(987654321))


class _Plugger:
    """One-pass walker: replaces template parameters by actual pieces,
    shifting each actual across the binders crossed on the way.

    ``rest_holes`` plug capture-style: the actual's variable 0 is captured
    by the innermost program binder at the occurrence.
    """

    def __init__(self, kind_holes: dict, prog_holes: dict, body=None, rest_holes=None):
        self.kind_holes = kind_holes  # index -> actual type
        self.prog_holes = prog_holes  # index -> actual program
        self.rest_holes = rest_holes or {}
        self.body = body  # actual spec with free program variable 0
        self.n_kind = len(kind_holes)
        self.n_prog = len(self.prog_holes) + len(self.rest_holes)

    def plug(self, x, depth=(0, 0, 0)):
        """Plug the template ``x``, found under ``depth`` (type, program,
        expression) binders of the template."""
        dt, dp, de = depth
        if x == BODY_SENTINEL:
            if self.body is None:
                raise TemplateMissing("template has no body parameter")
            if dp < 1:
                raise TemplateMissing(
                    "the body parameter must sit under its program binder"
                )
            body = shift(shift(self.body, TYPE, dt), PROG, dp - 1, 1)
            return shift(body, EXPR, de)
        match x:
            case e.TVar(k) if k >= dt:
                if k - dt in self.kind_holes:
                    return shift(self.kind_holes[k - dt], TYPE, dt)
                return e.TVar(k - self.n_kind)
            case e.PVar(k) if k >= dp:
                hole = k - dp
                if hole in self.prog_holes:
                    return shift(shift(self.prog_holes[hole], TYPE, dt), PROG, dp)
                if hole in self.rest_holes:
                    if dp < 1:
                        raise TemplateMissing(
                            "template uses the result parameter outside its binder"
                        )
                    return shift(shift(self.rest_holes[hole], TYPE, dt), PROG, dp - 1, 1)
                return e.PVar(k - self.n_prog)

        def child(c, under):
            return self.plug(c, tuple(map(add, depth, under)) if under else depth)

        return map_children(x, child)


def _section(node, tag: str, n: int = 2):
    """The ``(tag ...)`` section of an instance, with its ``n`` arguments."""
    for item in node.items[2:]:
        s = expect_list(item, "instance section")
        if head(s) == tag:
            return expect_args(s, n)
    raise SurfaceSyntaxError(
        f"instance is missing the ({tag} ...) section", node.line, node.col
    )


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


def elab_instance(doc, node) -> PureInstance:
    from .elaborate import EffEnv, elab_program, elab_spec, elab_type

    name = expect_atom(node[1], "name").text
    strat_s = _section(node, "strategy", 1)
    strat = STRATEGY.read(expect_atom(strat_s[1], "strategy").text, strat_s.line, strat_s.col)

    comp_s = _section(node, "comp")
    _params(comp_s, ("T",))
    env = EffEnv()
    env.kinds.push("T")
    comp_body = elab_type(doc, env, comp_s[2])

    ret_s = _section(node, "ret")
    _params(ret_s, ("T", "p"))
    env = EffEnv()
    env.kinds.push("T")
    env.progs.push("p")
    ret_body = elab_program(doc, env, ret_s[2])

    bind_s = _section(node, "bind")
    _params(bind_s, ("T1", "T2", "p1", "rest"))
    env = EffEnv()
    env.kinds.push("T1")
    env.kinds.push("T2")
    env.progs.push("p1")
    env.progs.push("rest")
    bind_body = elab_program(doc, env, bind_s[2])

    after_s = _section(node, "after")
    _params(after_s, ("T", "p", "body"))
    env = EffEnv()
    env.kinds.push("T")
    env.progs.push("p")
    saved = dict(doc.specs)
    doc.specs["body"] = BODY_SENTINEL
    try:
        after_body = elab_spec(doc, env, after_s[2])
    finally:
        doc.specs.clear()
        doc.specs.update(saved)

    def comp_type(t):
        return _Plugger({0: t}, {}).plug(comp_body)

    def ret_prog(t, p):
        return _Plugger({0: t}, {0: p}).plug(ret_body)

    def bind_prog(t1, t2, first, rest):
        # the template's program frame is [p1, rest]: rest innermost
        return _Plugger({0: t2, 1: t1}, {1: first}, rest_holes={0: rest}).plug(bind_body)

    def after_spec(t, p, body_spec):
        return _Plugger({0: t}, {0: p}, body=body_spec).plug(after_body)

    return PureInstance(
        name=name,
        strategy=strat,
        comp_type=comp_type,
        ret_prog=ret_prog,
        bind_prog=bind_prog,
        after_spec=after_spec,
    )
