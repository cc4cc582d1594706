"""Syntax of intuitionistic many-sorted monadic higher-order logic.

Terms and propositions use de Bruijn indices over a single namespace,
``TERM``, of sorted term variables; index 0 is the innermost binder.  The
binders are declared on the node classes, and shifting and substitution
are the generic ``shift``/``subst`` derived from those declarations.  All
nodes are immutable and hash-consed, so alpha-equality is identity.
"""

from __future__ import annotations

from .._astnode import NonTerm, Term, astnode, namespaces

# The single namespace of sorted term variables.
(TERM,) = namespaces("term")


# Sorts: the base sort and one-argument predicate sorts over it.


class Sort(NonTerm):
    """A sort: the base sort ``*`` or a predicate sort."""


@astnode
class Base(Sort):
    def __repr__(self) -> str:
        return "*"


@astnode
class Pred(Sort):
    inner: Sort

    def __repr__(self) -> str:
        return f"(P {self.inner!r})"


STAR = Base()


# Terms: variables and (base) comprehensions.


class HolTerm(Term):
    """A term of the logic: a variable or a comprehension."""


class HolProp(Term):
    """A proposition of the logic."""


@astnode(var=TERM)
class Var(HolTerm):
    index: int


@astnode(binds={"body": (TERM,)})
class Compr(HolTerm):
    """{u:s | psi} — binds one variable of sort ``binder_sort`` in ``body``."""

    binder_sort: Sort
    body: HolProp


@astnode
class ComprBase(HolTerm):
    """{psi}0 — internalizes a proposition as a base-sorted term; binds nothing."""

    body: HolProp


@astnode
class MemBase(HolProp):
    """t ∈₀ — the base membership embedding of a base-sorted term."""

    term: HolTerm


@astnode
class Mem(HolProp):
    """element ∈ set — requires set's sort to be P(sort of element)."""

    element: HolTerm
    set: HolTerm


@astnode
class Imp(HolProp):
    lhs: HolProp
    rhs: HolProp


@astnode(binds={"body": (TERM,)})
class Forall(HolProp):
    binder_sort: Sort
    body: HolProp


# The derived falsity constant: forall u:*. u ∈₀.
FALSUM = Forall(STAR, MemBase(Var(0)))
