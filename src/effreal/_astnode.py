"""AST node classes, their binding structure, and the binder-aware
operations derived from it.

Nodes are hash-consed.  Every node of a ``Term`` or ``NonTerm`` category
is built through one intern table keyed by its class and field values, so
building a node that is already alive returns that node: two equal trees
are one object.  Equality and hashing are therefore object identity, O(1)
however deep the trees, and a result kept on a node (its loose-variable
bound, its normal form) serves every occurrence of it.  This holds for
every way a node is made: positional and keyword calls, ``map_children``,
``dataclasses.replace``, copying and unpickling.  The table is a dict of
weak references: a node's death removes its entry, so memory is bounded by
the live nodes, and the keys hold a node's children, so a node leaves the
table only after its parents.  See Filliâtre and Conchon, "Type-Safe
Modular Hash-Consing" (2006).  A node class is made once, by its class
statement, with its annotated fields (none has a default) as ``__slots__``
and no instance dict; ``dataclass`` records them and generates no method.
``_Node`` gives all nodes ``__weakref__``, the dataclass ``repr``,
immutability (``FrozenInstanceError``) and a ``__reduce__`` that rebuilds
copies and unpickled nodes through the table.

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
(one more than the largest free index, 0 when closed) in ``_loose``, so
that shifting and substitution return subtrees without the affected
variables unchanged, and in ``_pure`` whether no node of a class marked
``_impure`` lies in it, so that instantiation returns it unwalked.
``_nf`` keeps a normal form once ``effhol.conversion`` has computed it.
"""

from __future__ import annotations

import typing
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the node's key in the table


# Every live node: (class, *field values) -> a _Ref to it.
_TABLE: dict[tuple, _Ref] = {}
# Bound tuples are shared: nodes with equal bounds hold the same tuple.
_BOUNDS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _drop(ref: _Ref, table=_TABLE) -> None:
    # ``ref``'s node died; a node rebuilt since holds the key with a newer
    # reference.  ``table`` is bound here to work while the module is torn down.
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Interned(type):
    """Metaclass of the node categories: a class keeps the fields its body
    annotates in ``__slots__``, and calling a node class returns the one
    live node with that class and those fields, building it if there is none."""

    def __new__(mcls, name, bases, ns):
        ns.setdefault("__slots__", tuple(ns.get("__annotations__", ())))
        return super().__new__(mcls, name, bases, ns)

    def __call__(cls, *args, **kwargs):
        names = cls._names
        if kwargs or len(args) != len(names):
            # bind as a dataclass __init__ would: positional, then keyword
            given = {**dict(zip(names, args)), **kwargs}
            if len(given) != len(args) + len(kwargs) or given.keys() != set(names):
                raise TypeError(f"{cls.__name__}() got surplus, unknown or missing arguments")
            args = tuple(given[n] for n in names)
        key = (cls, *args)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            for put, value in zip(cls._puts, args):
                put(node, value)
            terms = cls._terms
            if terms is not None:
                bound = None if cls._var is None else _var_bound(cls._var, args[0])
                pure = not cls._impure
                for i, under in terms:
                    b, pure = args[i]._loose, pure and args[i]._pure
                    if under:
                        b = _BOUNDS.setdefault(c := tuple(x - u if x > u else 0 for x, u in zip(b, under)), c)
                    if bound is not None and b is not bound:
                        b = _BOUNDS.setdefault(c := tuple(map(max, bound, b)), c)
                    bound = b
                _put_loose(node, bound)
                _put_nf(node, None)
                _put_pure(node, pure)
            ref = _TABLE[key] = _Ref(node, _drop)
            ref.key = key
        return node


class _Node(metaclass=_Interned):
    """The methods every node class shares instead of generated ones."""

    __slots__ = ("__weakref__",)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._names)})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and unpickled nodes are rebuilt through the table
        return type(self), tuple(getattr(self, n) for n in self._names)


class Term(_Node):
    """Base of the syntax categories whose nodes can contain variables."""

    __slots__ = ("_loose", "_nf", "_pure")
    _impure = False


_put_loose, _put_nf, _put_pure = (getattr(Term, n).__set__ for n in Term.__slots__)


class NonTerm(_Node):
    """Base of the syntax categories without variables (kinds, sorts)."""

    _terms = None  # no loose bound or purity to keep


class Namespace:
    """One de Bruijn namespace; ``slot`` is its position in the bound
    tuples of its calculus and ``family`` lists all of that calculus's
    namespaces in slot order."""

    __slots__ = ("name", "slot", "family")

    def __repr__(self) -> str:
        return self.name


def namespaces(*names: str) -> tuple[Namespace, ...]:
    """The namespaces of one calculus."""
    family = tuple(Namespace() for _ in names)
    for slot, ns in enumerate(family):
        ns.name, ns.slot, ns.family = names[slot], slot, family
    return family


def astnode(cls=None, *, var: Namespace | None = None, binds: dict | None = None):
    if cls is None:
        return lambda c: astnode(c, var=var, binds=binds)
    if not issubclass(cls, (Term, NonTerm)):
        raise TypeError(f"{cls.__name__}: a node class derives from Term or NonTerm")
    if not issubclass(cls, Term) and (var is not None or binds):
        raise TypeError(f"{cls.__name__}: only Term classes declare binders")
    # a docstring of its own spares dataclass an inspect.signature call
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__slots__)})"
    dataclass(init=False, repr=False, eq=False)(cls)  # records the fields on cls itself
    cls._names = cls.__slots__
    cls._puts = tuple(getattr(cls, n).__set__ for n in cls._names)
    if issubclass(cls, NonTerm):
        return cls
    binds = binds or {}
    try:
        hints = typing.get_type_hints(cls)
    except NameError as exc:
        raise TypeError(f"{cls.__name__}: cannot resolve field annotation ({exc})") from None
    fields = []
    for name in cls._names:
        ann = hints[name]
        if var is not None and (name != "index" or ann is not int or len(hints) != 1):
            raise TypeError(f"{cls.__name__}: a variable class has one field, index: int")
        if var is not None or isinstance(ann, type) and issubclass(ann, NonTerm):
            fields.append((name, None))
        elif isinstance(ann, type) and issubclass(ann, Term):
            family = binds[name][0].family if name in binds else ()
            fields.append((name, tuple(sum(b is ns for b in binds[name]) for ns in family)))
        else:
            raise TypeError(f"{cls.__name__}.{name}: field is neither a term nor a "
                            f"non-term category ({ann!r})")
    if set(binds) - {n for n, u in fields if u}:
        raise TypeError(f"{cls.__name__}: binders declared on unknown or non-term fields")
    # a variable's namespace, every field with its binder counts per slot
    # (``None``: not a term), and for ``__call__`` the term fields' positions
    cls._var, cls._fields = var, tuple(fields)
    cls._terms = terms = tuple((i, u) for i, (_, u) in enumerate(fields) if u is not None)
    if var is None and not terms:
        raise TypeError(f"{cls.__name__}: a term class is a variable or has a term field")
    return cls


@lru_cache(maxsize=None)
def _var_bound(ns: Namespace, index: int) -> tuple[int, ...]:
    return _BOUNDS.setdefault(b := tuple(index + 1 if o is ns else 0 for o in ns.family), b)


def map_children(x: Term, fn) -> Term:
    """Rebuild ``x`` with ``fn(child, under)`` in place of each term child,
    where ``under`` counts the binders per namespace slot between ``x`` and
    the child (``()`` for none).  Returns ``x`` itself if nothing changed."""
    args = []
    changed = False
    for name, under in x._fields:
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
    if x._var is ns:
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
    if x._var is ns:
        return sub if x.index == j else type(x)(x.index - 1)

    def under_binders(c, under):
        if not under:
            return subst(c, ns, j, sub)
        s = sub
        for other, n in zip(ns.family, under):
            s = shift(s, other, n)
        return subst(c, ns, j + under[ns.slot], s)

    return map_children(x, under_binders)
