"""AST node classes, their binding structure, and the binder-aware
operations derived from it.

Nodes are hash-consed.  Every node of a ``Term`` or ``NonTerm`` category
is built through one intern table keyed by its class and field values, so
building a node that is already alive returns that node: two equal trees
are one object.  Equality and hashing are therefore object identity, O(1)
however deep the trees, and a result kept on a node (its loose-variable
bound, its normal form) serves every occurrence of it.  This holds for
every way a node is made: positional and keyword calls, ``map_children``,
``dataclasses.replace``, copying and unpickling.  The table holds its nodes
weakly, so memory is bounded by the live nodes; its keys hold a node's
children, so a node leaves the table only after its parents.  See
Filliâtre and Conchon, "Type-Safe Modular Hash-Consing" (2006).

Binding structure is declared once, on the node classes of all three
calculi.  Every syntax category derives from ``Term`` (it can contain
variables) or ``NonTerm`` (kinds and sorts, which never do); each calculus
has one or more de Bruijn ``Namespace``s.  A variable class is declared
with ``@astnode(var=NS)`` and has exactly one field, ``index: int``.  Any
other term class lists the fields that sit under binders, with the
namespaces bound there, e.g. ``@astnode(binds={"body": (PROG, EXPR)})``
for a comprehension that binds one program and one expression variable.
A field of a term class must be annotated with a ``Term`` or ``NonTerm``
category; anything else is rejected when the class is defined.

From that declaration this module derives ``shift``, ``subst`` and the
child rebuild ``map_children`` for every calculus.  Each term node also
records, when it is first built, its loose-variable bound per namespace
(one more than the largest free index, 0 when closed), so that shifting
and substitution return subtrees without the affected variables unchanged.
"""

from __future__ import annotations

import dataclasses
import typing
import weakref
from dataclasses import dataclass
from functools import lru_cache

# Every live node, keyed by (class, *field values).
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Metaclass of the node categories: calling a node class returns the
    one live node with that class and those fields, building it only if
    there is none."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._names):
            # the dataclass __init__ checks the arguments and fills defaults
            blank = object.__new__(cls)
            cls.__init__(blank, *args, **kwargs)
            args = tuple(blank.__dict__[n] for n in cls._names)
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls._names, args))
            if cls._binding is not None:
                _set_bound(node)
            _TABLE[key] = node
        return node


class Term(metaclass=_Interned):
    """Base of the syntax categories whose nodes can contain variables."""

    __slots__ = ()
    # The node's normal form under conversion once computed (see
    # ``effhol.conversion``); never the node itself, so no node refers to itself.
    _nf = None


class NonTerm(metaclass=_Interned):
    """Base of the syntax categories without variables (kinds, sorts)."""

    __slots__ = ()
    _binding = None


class Namespace:
    """One de Bruijn namespace; ``slot`` is its position in the bound
    tuples of its calculus and ``family`` lists all of that calculus's
    namespaces in slot order."""

    __slots__ = ("name", "slot", "family")

    def __init__(self, name: str, slot: int):
        self.name = name
        self.slot = slot

    def __repr__(self) -> str:
        return self.name


def namespaces(*names: str) -> tuple[Namespace, ...]:
    """The namespaces of one calculus."""
    family = tuple(Namespace(n, i) for i, n in enumerate(names))
    for ns in family:
        ns.family = family
    return family


# Bound tuples are shared: nodes with equal bounds hold the same tuple.
_BOUNDS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _intern(bound: tuple[int, ...]) -> tuple[int, ...]:
    return _BOUNDS.setdefault(bound, bound)


class _Binding:
    """The binding layout of one term class.

    ``fields`` lists every dataclass field in order with its binder counts
    per namespace slot: ``()`` for a term field under no binder, ``None``
    for a non-term field.
    """

    __slots__ = ("var", "fields", "terms")

    def __init__(self, var, fields):
        self.var = var
        self.fields = fields
        self.terms = tuple((n, u) for n, u in fields if u is not None)


def astnode(cls=None, *, var: Namespace | None = None, binds: dict | None = None):
    if cls is None:
        return lambda c: astnode(c, var=var, binds=binds)
    if not issubclass(cls, (Term, NonTerm)):
        raise TypeError(f"{cls.__name__}: a node class derives from Term or NonTerm")
    if not issubclass(cls, Term) and (var is not None or binds):
        raise TypeError(f"{cls.__name__}: only Term classes declare binders")
    cls = dataclass(frozen=True, eq=False)(cls)
    cls._names = tuple(f.name for f in dataclasses.fields(cls))
    cls.__reduce__ = _reduce
    if issubclass(cls, Term):
        cls._binding = _layout(cls, var, binds or {})
    return cls


def _reduce(node):
    # copies and unpickled nodes are rebuilt through the table
    return type(node), tuple(getattr(node, n) for n in node._names)


def _layout(cls, var, binds) -> _Binding:
    try:
        hints = typing.get_type_hints(cls)
    except NameError as exc:
        raise TypeError(f"{cls.__name__}: cannot resolve field annotation ({exc})") from None
    fields = []
    for f in dataclasses.fields(cls):
        ann = hints[f.name]
        if var is not None:
            if f.name != "index" or ann is not int or len(hints) != 1:
                raise TypeError(f"{cls.__name__}: a variable class has one field, index: int")
            fields.append((f.name, None))
        elif isinstance(ann, type) and issubclass(ann, NonTerm):
            fields.append((f.name, None))
        elif isinstance(ann, type) and issubclass(ann, Term):
            under = ()
            if f.name in binds:
                family = binds[f.name][0].family
                under = tuple(sum(b is ns for b in binds[f.name]) for ns in family)
            fields.append((f.name, under))
        else:
            raise TypeError(
                f"{cls.__name__}.{f.name}: field is neither a term nor a non-term "
                f"category ({ann!r})"
            )
    if set(binds) - {n for n, u in fields if u}:
        raise TypeError(f"{cls.__name__}: binders declared on unknown or non-term fields")
    binding = _Binding(var, tuple(fields))
    if var is None and not binding.terms:
        raise TypeError(f"{cls.__name__}: a term class is a variable or has a term field")
    return binding


def _set_bound(node) -> None:
    binding = node._binding
    if binding.var is not None:
        bound = _var_bound(binding.var, node.index)
    else:
        bound = None
        for name, under in binding.terms:
            b = getattr(node, name)._loose
            if under:
                b = _intern(tuple(x - u if x > u else 0 for x, u in zip(b, under)))
            if bound is None:
                bound = b
            elif b is not bound:
                bound = _intern(tuple(map(max, bound, b)))
    node.__dict__["_loose"] = bound


@lru_cache(maxsize=None)
def _var_bound(ns: Namespace, index: int) -> tuple[int, ...]:
    return _intern(tuple(index + 1 if o is ns else 0 for o in ns.family))


def map_children(x: Term, fn) -> Term:
    """Rebuild ``x`` with ``fn(child, under)`` in place of each term child,
    where ``under`` counts the binders per namespace slot between ``x`` and
    the child (``()`` for none).  Returns ``x`` itself if nothing changed."""
    args = []
    changed = False
    for name, under in x._binding.fields:
        v = getattr(x, name)
        if under is not None:
            w = fn(v, under)
            changed = changed or w is not v
            v = w
        args.append(v)
    return type(x)(*args) if changed else x


def shift(x: Term, ns: Namespace, by: int = 1, cutoff: int = 0) -> Term:
    """Add ``by`` to every variable of ``ns`` in ``x`` with index at least
    ``cutoff`` (counted at the root of ``x``)."""
    if by == 0 or x._loose[ns.slot] <= cutoff:
        return x
    return _shift(x, ns, by, cutoff)


@lru_cache(maxsize=262144)
def _shift(x, ns, by, cutoff):
    if x._binding.var is ns:
        return type(x)(x.index + by)
    slot = ns.slot
    return map_children(
        x, lambda c, under: shift(c, ns, by, cutoff + under[slot] if under else cutoff)
    )


def subst(x: Term, ns: Namespace, j: int, sub: Term) -> Term:
    """``x[j := sub]`` for variable ``j`` of ``ns``, removing it from scope:
    variables of ``ns`` above ``j`` move down by one.  ``sub`` is expressed
    in the context of ``x`` without ``j`` and is shifted across every
    binder crossed on the way down."""
    if x._loose[ns.slot] <= j:
        return x
    if x._binding.var is ns:
        return sub if x.index == j else type(x)(x.index - 1)

    def under_binders(c, under):
        if not under:
            return subst(c, ns, j, sub)
        s = sub
        for other, n in zip(ns.family, under):
            s = shift(s, other, n)
        return subst(c, ns, j + under[ns.slot], s)

    return map_children(x, under_binders)
