"""Syntax of the effectful higher-order program logic.

Six categories: kinds, types, programs, indices, expressions and
specifications.  There are three independent de Bruijn namespaces —
``TYPE`` (type variables, the kind context), ``PROG`` (program variables,
the type context) and ``EXPR`` (expression variables, the index context).
Each binder is declared on its node class with ``@astnode(binds=...)``:
all of them extend exactly one namespace except ``Compr``, whose body
sits under one program and one expression variable.  Shifting,
substitution and conversion are derived from those declarations
(``shift``/``subst`` in ``effreal._astnode``, ``normalize`` in
``conversion``); kinds hold no variables and are never traversed.

Everything is immutable and hash-consed: equal terms are one object, so
alpha-equality is identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._astnode import NonTerm, Term, astnode, namespaces

TYPE, PROG, EXPR = namespaces("type", "program", "expression")


class Kind(NonTerm):
    """A kind of the program logic's types."""


@astnode
class KBase(Kind):
    def __repr__(self) -> str:
        return "*"


@astnode
class KCon(Kind):
    """Kind of constructors taking one argument of ``inner`` and returning a type."""

    inner: Kind

    def __repr__(self) -> str:
        return f"({self.inner!r} => *)"


KSTAR = KBase()


class EffType(Term):
    """A type of the program logic."""


@astnode(var=TYPE)
class TVar(EffType):
    index: int


@astnode
class TApp(EffType):
    fn: EffType
    arg: EffType


@astnode(binds={"body": (TYPE,)})
class TAbs(EffType):
    binder_kind: Kind
    body: EffType


@astnode
class Fun(EffType):
    dom: EffType
    cod: EffType


@astnode(binds={"body": (TYPE,)})
class TForall(EffType):
    binder_kind: Kind
    body: EffType


@astnode
class Comp(EffType):
    """Computation type: the monad applied to ``inner``."""

    _impure = True
    inner: EffType


class EffProgram(Term):
    """A program of the program logic."""


@astnode(var=PROG)
class PVar(EffProgram):
    index: int


@astnode(binds={"body": (TYPE,)})
class TyAbs(EffProgram):
    binder_kind: Kind
    body: EffProgram


@astnode(binds={"body": (PROG,)})
class Abs(EffProgram):
    binder_type: EffType
    body: EffProgram


@astnode
class TyApp(EffProgram):
    fn: EffProgram
    arg: EffType


@astnode
class App(EffProgram):
    fn: EffProgram
    arg: EffProgram


@astnode
class Ret(EffProgram):
    _impure = True
    inner: EffProgram


@astnode(binds={"rest": (PROG,)})
class Bind(EffProgram):
    """bind x:binder_type <- first; rest — binds one program variable in rest.

    The annotation keeps type checking syntax-directed.
    """

    _impure = True
    binder_type: EffType
    first: EffProgram
    rest: EffProgram


class EffIndex(Term):
    """An index: the sort of a specification expression."""


@astnode
class RefBase(EffIndex):
    carrier: EffType


@astnode
class Ref(EffIndex):
    carrier: EffType
    arg: EffIndex


@astnode(binds={"body": (TYPE,)})
class IForall(EffIndex):
    binder_kind: Kind
    body: EffIndex


class EffExpr(Term):
    """A specification expression."""


class EffSpec(Term):
    """A specification: a formula of the program logic."""


@astnode(var=EXPR)
class EVar(EffExpr):
    index: int


@astnode(binds={"body": (PROG, EXPR)})
class Compr(EffExpr):
    """{x:binder_type ; y:binder_index | body} — binds one program variable and
    one expression variable in body."""

    binder_type: EffType
    binder_index: EffIndex
    body: EffSpec


@astnode(binds={"body": (PROG,)})
class ComprBase(EffExpr):
    """{x:binder_type | body}0 — binds one program variable in body."""

    binder_type: EffType
    body: EffSpec


@astnode(binds={"body": (TYPE,)})
class EForall(EffExpr):
    binder_kind: Kind
    body: EffExpr


@astnode
class EApp(EffExpr):
    fn: EffExpr
    arg: EffType


@astnode
class SMem(EffSpec):
    """prog ∈ fn⟨arg⟩ — fn is the refining expression, arg its expression argument."""

    prog: EffProgram
    fn: EffExpr
    arg: EffExpr


@astnode
class SMemBase(EffSpec):
    prog: EffProgram
    fn: EffExpr


@astnode
class SImp(EffSpec):
    lhs: EffSpec
    rhs: EffSpec


@astnode(binds={"body": (PROG,)})
class After(EffSpec):
    """after prog (x:binder_type) body — body holds of the result of running prog."""

    _impure = True
    prog: EffProgram
    binder_type: EffType
    body: EffSpec


@astnode(binds={"body": (TYPE,)})
class SForallType(EffSpec):
    binder_kind: Kind
    body: EffSpec


@astnode(binds={"body": (PROG,)})
class SForallProg(EffSpec):
    binder_type: EffType
    body: EffSpec


@astnode(binds={"body": (EXPR,)})
class SForallExpr(EffSpec):
    binder_index: EffIndex
    body: EffSpec


@dataclass(frozen=True)
class EffContexts:
    """Kind, index and type contexts; innermost entry last.

    Index and type entries are always expressed relative to the full kind
    context (entries get their type variables shifted when a judgment
    descends under a kind binder).
    """

    kinds: tuple[Kind, ...] = ()
    indices: tuple[EffIndex, ...] = ()
    types: tuple[EffType, ...] = ()


def is_value(p: EffProgram) -> bool:
    """Values of the base call-by-value strategy."""
    return isinstance(p, (PVar, TyAbs, Abs))


# The standard falsity encodings in the effect-free fragment.
BOT_TYPE = TForall(KSTAR, TVar(0))
BOT_SPEC = SForallType(
    KSTAR, SForallProg(TVar(0), SForallExpr(RefBase(TVar(0)), SMemBase(PVar(0), EVar(0))))
)

# Truth: a program universal over a vacuous (self-implying) membership.
_TOP_CELL = ComprBase(BOT_TYPE, BOT_SPEC)
TOP_SPEC = SForallProg(
    BOT_TYPE,
    SImp(SMemBase(PVar(0), _TOP_CELL), SMemBase(PVar(0), _TOP_CELL)),
)


def neg(tau: EffType) -> EffType:
    return Fun(tau, BOT_TYPE)
