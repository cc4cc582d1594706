"""Canonical printing: de Bruijn core back to the named surface syntax.

One printer serves every category, reading each node's layout from
``grammar``.  Binder names are regenerated per namespace from the binder
depth (u0, u1, ... for logic variables; X, x, y prefixes on the effectful
side, v for untyped terms), innermost binders getting the highest number,
so parse(print(x)) == x.

Printing a sequent or a derivation keeps one counted text table per
top-level call (``print_sequent``, ``print_derivation``, and ``jsonio``'s
``hol_to_json`` and ``eff_to_json``; ``witness_texts`` prints with its
caller's table).  The key is ``(node, depth)``: a node with children and
the binder depths it sits under.  It is exact, since a node's text depends
only on the node, which is hash-consed, and on those depths.  A first
pass, which builds no strings, counts how often ``_emit`` will reach each
key from the call's formulas (context entries, hypotheses, goals,
witnesses and the bodies under their binders).  It stops below a key it
has reached before, because ``_emit`` reuses a printed key's text without
reaching its children again.  The table keeps the keys reached more than
once.  ``_emit`` prints any other key in place; it prints a kept key once,
holds its text, and drops the text after its last counted use.  Variables
and bare tags are always printed in place.
"""

from __future__ import annotations

from itertools import chain
from operator import add

from ..walk import walk
from .grammar import ANNOTATES, EFF, FORMS, HOL, Literal, binder_name


def _count(x, depth: tuple[int, ...], table: dict) -> None:
    """Count one more reach of ``x`` under ``depth`` in ``table`` and, on
    the first, the reaches of its children as ``_emit`` makes them."""
    form = FORMS.get(type(x))
    if form is None or form.var is not None or not form.items:
        return
    key = (x, depth)
    reached = table.get(key, 0)
    table[key] = reached + 1
    if reached:
        return
    for name, _, _, under in form.items:
        if name is not None:
            _count(getattr(x, name), tuple(map(add, depth, under)) if under else depth, table)


def _emit(x, depth: tuple[int, ...], out: list[str], table: dict) -> None:
    """Append the parts of ``x``, found under ``depth`` binders per
    namespace slot, to ``out``; ``table`` is the counted text table of the
    top-level call (an empty one prints every node in place)."""
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
    key = (x, depth)
    uses = table.get(key, 1)
    if type(uses) is list:  # [text, uses left], printed before
        out.append(uses[0])
        uses[1] -= 1
        if not uses[1]:
            del table[key]
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
    if uses > 1:
        text = "".join(out[start:])
        out[start:] = (text,)
        table[key] = [text, uses - 1]


def _text(x, depth: tuple[int, ...], table: dict) -> str:
    out: list[str] = []
    _emit(x, depth, out, table)
    return "".join(out)


def print_term(x, *depth: int) -> str:
    """Print a node of any category; ``depth`` counts the enclosing binders
    per namespace of its calculus, in slot order (type, program,
    expression on the effectful side), missing counts being 0.  No table
    is kept, so this is also the reference the tables are tested against."""
    # padding is harmless: crossing a binder keeps only the family's slots
    return _text(x, depth + (0, 0, 0), {})


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
    binders, by JSON key: terms as surface text, step counts and
    strategies as their JSON values.  ``table`` is the counted text table
    of the enclosing top-level call."""
    return {
        key: v if at is None else _text(v, at, table) for key, v, at in _witnesses(calc, d, depth)
    }


def _count_sequent(calc, seq, table: dict) -> tuple[int, ...]:
    """Count the formulas of ``seq`` in ``table``; returns the binder
    depths at them."""
    contexts = calc.contexts(seq)
    depth = calc.depth(contexts)
    for x in (*chain.from_iterable(contexts), *seq.hyps, seq.goal):
        _count(x, depth, table)
    return depth


def _shared(table: dict) -> dict:
    """The keys of a counted ``table`` reached more than once; ``_emit``
    prints any other key in place."""
    return {key: n for key, n in table.items() if n > 1}


def _table(calc, d) -> dict:
    """The counted text table for printing the derivation ``d``: its
    nodes are walked from an explicit stack, not by recursion."""
    table: dict = {}
    stack = [d]
    while stack:
        d = stack.pop()
        depth = _count_sequent(calc, d.conclusion, table)
        for _, v, at in _witnesses(calc, d, depth):
            if at is not None:
                _count(v, at, table)
        stack.extend(d.premises)
    return _shared(table)


def _sequent(calc, seq, out: list[str], table: dict) -> tuple[int, ...]:
    """Append the text of ``seq`` to ``out``; returns the binder depths at
    its formulas."""
    contexts = calc.contexts(seq)
    depth = calc.depth(contexts)
    out.append("(sequent")
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
    return depth


def _derivation(calc, d, out: list[str], table: dict):
    rule = calc.rules[d.rule]
    out.append(f"({rule.tag} ")
    depth = _sequent(calc, d.conclusion, out, table)
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
    table: dict = {}
    _count_sequent(calc, seq, table)
    out: list[str] = []
    _sequent(calc, seq, out, _shared(table))
    return "".join(out)


def print_derivation(calc, d) -> str:
    out: list[str] = []
    walk(_derivation, calc, d, out, _table(calc, d))
    return "".join(out)


def print_hol_sequent(seq) -> str:
    return print_sequent(HOL, seq)


def print_eff_sequent(seq) -> str:
    return print_sequent(EFF, seq)


def print_hol_derivation(d) -> str:
    return print_derivation(HOL, d)


def print_eff_derivation(d) -> str:
    return print_derivation(EFF, d)
