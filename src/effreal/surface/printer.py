"""Canonical printing: de Bruijn core back to the named surface syntax.

One printer serves every category, reading each node's layout from
``grammar``.  Binder names are regenerated per namespace from the binder
depth (u0, u1, ... for logic variables; X, x, y prefixes on the effectful
side, v for untyped terms), innermost binders getting the highest number,
so parse(print(x)) == x.

Printing a sequent or a derivation keeps one text table per top-level call
(``print_sequent``, ``print_derivation``, and ``jsonio``'s ``hol_to_json``
and ``eff_to_json``; ``witness_texts`` prints with its caller's table).
The key of a node with children is ``(node, depths)``, where ``depths``
keeps the binder depths of the namespaces its category can read
(``grammar``'s derived ``scope``): a type's text depends on the type depth
only, however many program binders it sits under.  The key is exact, since
nodes are hash-consed and a node's text reads the depths only at its
variables and binders.  Printing is one pass in units, a sequent or a
witness each.  A key printed for the first time is entered with where its
text lies: fragment indices into the open unit's parts, and, once the unit
is joined, that unit's text and character offsets.  A later reach appends
that slice.  So the table holds no text but the units the call returns.
Variables and bare tags are always printed in place.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add

from ..walk import walk
from .grammar import ANNOTATES, EFF, FORMS, HOL, Literal, binder_name


def _emit(x, depth: tuple[int, ...], out: list[str], table: dict) -> None:
    """Append the parts of ``x``, found under ``depth`` binders per
    namespace slot, to ``out``, the open unit; ``table`` maps each key
    printed before to where its text lies."""
    form = FORMS.get(type(x))
    if form is None:
        raise TypeError(f"not a surface node: {x!r}")
    ns = form.var
    if ns is not None:
        out.append(binder_name(ns, depth[ns.slot] - 1 - x.index))
        return
    if not form.items:
        out.append(form.tag)
        return
    key = (x, depth[: form.scope])
    at = table.get(key)
    if at is not None:  # (a closed unit's text, or the open unit's parts, start, end)
        text, start, end = at
        out.append(text[start:end] if type(text) is str else "".join(text[start:end]))
        return
    start = len(out)
    out.append("(" + form.tag)
    for name, _, binds, under in form.items:
        if binds is None:
            out.append(" ")
            _emit(getattr(x, name), tuple(map(add, depth, under)) if under else depth, out, table)
            continue
        out.append(f" ({binder_name(binds, depth[binds.slot])}")
        if name is not None:
            out.append(" ")
            _emit(getattr(x, name), depth, out, table)
        out.append(")")
    out.append(")")
    table[key] = (out, start, len(out))


def _close(out: list[str], table: dict, fresh: int) -> str:
    """The text of a unit printed into ``out``; the entries of ``table``
    from the ``fresh``-th on, which the unit made, now point into it."""
    text = "".join(out)
    ends = [0, *accumulate(map(len, out))]
    for key in list(islice(reversed(table), len(table) - fresh)):
        _, start, end = table[key]
        table[key] = (text, ends[start], ends[end])
    return text


def _text(x, depth: tuple[int, ...], table: dict) -> str:
    fresh, out = len(table), []
    _emit(x, depth, out, table)
    return _close(out, table, fresh)


class _Unshared(dict):
    """A table that keeps nothing: every node is printed in place."""

    def __setitem__(self, key, value) -> None:
        pass


def print_term(x, *depth: int) -> str:
    """Print a node of any category; ``depth`` counts the enclosing binders
    per namespace of its calculus, in slot order (type, program,
    expression on the effectful side), missing counts being 0.  No table
    is kept, so this is also the reference the tables are tested against."""
    # padding is harmless: crossing a binder keeps only the family's slots
    return _text(x, depth + (0, 0, 0), _Unshared())


print_hol_prop = print_type = print_program = print_spec = print_untyped = print_term


def _under(depth: tuple[int, ...], ns) -> tuple[int, ...]:
    return depth[: ns.slot] + (depth[ns.slot] + 1,) + depth[ns.slot + 1 :]


def _witnesses(calc, d, depth: tuple[int, ...]):
    """The witnesses of ``d``, whose conclusion sits under ``depth``
    binders, as ``(JSON key, value, depth)``: terms with the depth they
    print under, step counts and strategies as their JSON values with
    depth None."""
    witnesses = iter(calc.rules[d.rule].witnesses)
    for w in witnesses:
        v = getattr(d, w.field)
        if v is None:
            continue
        if isinstance(w.category, Literal):
            yield w.key, w.category.dump(v), None
            continue
        yield w.key, v, depth
        if w.binds:
            body = next(witnesses)
            yield body.key, getattr(d, body.field), _under(depth, ANNOTATES[w.category])


def witness_texts(calc, d, depth: tuple[int, ...], table: dict) -> dict:
    """The witnesses of ``d``, whose conclusion sits under ``depth``
    binders, by JSON key: terms as surface text, each printed as a unit
    with the enclosing top-level call's ``table``, step counts and
    strategies as their JSON values."""
    return {
        key: v if at is None else _text(v, at, table) for key, v, at in _witnesses(calc, d, depth)
    }


def _sequent(calc, seq, table: dict) -> tuple[str, tuple[int, ...]]:
    """The text of ``seq``, printed as a unit, and the binder depths at
    its formulas."""
    contexts = calc.contexts(seq)
    depth = calc.depth(contexts)
    fresh, out = len(table), ["(sequent"]
    for (tag, cat), entries in zip(calc.sections, contexts):
        ns = ANNOTATES[cat]
        out.append(f" ({tag}" if tag else " (")
        for i, ann in enumerate(entries):
            out.append(f"{' ' if tag or i else ''}({binder_name(ns, i)} ")
            _emit(ann, depth, out, table)
            out.append(")")
        out.append(")")
    out.append(" (hyps")
    for p in seq.hyps:
        out.append(" ")
        _emit(p, depth, out, table)
    out.append(") ")
    _emit(seq.goal, depth, out, table)
    out.append(")")
    return _close(out, table, fresh), depth


def _derivation(calc, d, out: list[str], table: dict):
    rule = calc.rules[d.rule]
    text, depth = _sequent(calc, d.conclusion, table)
    out += (f"({rule.tag} ", text)
    texts = witness_texts(calc, d, depth, table)
    witnesses = iter(rule.witnesses)
    for w in witnesses:
        if w.key not in texts:
            continue
        if w.binds:
            ns = ANNOTATES[w.category]
            body = next(witnesses)
            out.append(
                f" ({w.binds} ({binder_name(ns, depth[ns.slot])} {texts[w.key]}) {texts[body.key]})"
            )
        else:
            out.append(f" {texts[w.key]}")
    for p in d.premises:
        out.append(" ")
        yield calc, p, out, table
    out.append(")")


def print_sequent(calc, seq) -> str:
    return _sequent(calc, seq, {})[0]


def print_derivation(calc, d) -> str:
    out: list[str] = []
    walk(_derivation, calc, d, out, {})
    return "".join(out)


def print_hol_sequent(seq) -> str:
    return print_sequent(HOL, seq)


def print_eff_sequent(seq) -> str:
    return print_sequent(EFF, seq)


def print_hol_derivation(d) -> str:
    return print_derivation(HOL, d)


def print_eff_derivation(d) -> str:
    return print_derivation(EFF, d)
