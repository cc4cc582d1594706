"""Canonical printing: de Bruijn core back to the named surface syntax.

One printer serves every category, reading each node's layout from
``grammar``.  Binder names are regenerated per namespace from the binder
depth (u0, u1, ... for logic variables; X, x, y prefixes on the effectful
side, v for untyped terms), innermost binders getting the highest number,
so parse(print(x)) == x.

Printing a sequent or a derivation keeps one table per top-level call
(``print_sequent``, ``print_derivation``, and ``jsonio``'s ``hol_to_json``
and ``eff_to_json``) from ``(node, depth)`` to the node's text, looked up
wherever a context entry, hypothesis, goal or witness is printed.  The
key is exact: a node's text depends only on the node, which is
hash-consed, and on the binder depths it sits under.  Consecutive sequents
of a derivation share most of their formulas, so each is printed once.
Only these formula roots are kept, not every subterm, which keeps the
table small.
"""

from __future__ import annotations

from operator import add

from .grammar import ANNOTATES, EFF, FORMS, HOL, Literal, binder_name


def _emit(x, depth: tuple[int, ...], out: list[str]) -> None:
    """Append the parts of ``x``, found under ``depth`` binders per
    namespace slot, to ``out``."""
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
    out.append("(" + form.tag)
    for name, _, binds, under in form.items:
        if binds is None:
            out.append(" ")
            _emit(getattr(x, name), tuple(map(add, depth, under)) if under else depth, out)
            continue
        out.append(f" ({binder_name(binds, depth[binds.slot])}")
        if name is not None:
            out.append(" ")
            _emit(getattr(x, name), depth, out)
        out.append(")")
    out.append(")")


def _text(x, depth: tuple[int, ...], memo: dict) -> str:
    """The text of the formula ``x`` under ``depth``, from ``memo`` when
    it was printed before in the same top-level call."""
    key = (x, depth)
    text = memo.get(key)
    if text is None:
        out: list[str] = []
        _emit(x, depth, out)
        text = memo[key] = "".join(out)
    return text


def print_term(x, *depth: int) -> str:
    """Print a node of any category; ``depth`` counts the enclosing binders
    per namespace of its calculus, in slot order (type, program,
    expression on the effectful side), missing counts being 0."""
    out: list[str] = []
    # padding is harmless: crossing a binder keeps only the family's slots
    _emit(x, depth + (0, 0, 0), out)
    return "".join(out)


print_hol_prop = print_type = print_program = print_spec = print_untyped = print_term


def _under(depth: tuple[int, ...], ns) -> tuple[int, ...]:
    return depth[: ns.slot] + (depth[ns.slot] + 1,) + depth[ns.slot + 1 :]


def _sequent(calc, seq, out: list[str], memo: dict) -> tuple[int, ...]:
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
            out.append(_text(ann, depth, memo))
            out.append(")")
        out.append(")")
    out.append(" (hyps")
    for p in seq.hyps:
        out.append(" ")
        out.append(_text(p, depth, memo))
    out.append(") ")
    out.append(_text(seq.goal, depth, memo))
    out.append(")")
    return depth


def witness_texts(calc, d, depth: tuple[int, ...], memo: dict) -> dict:
    """The witnesses of ``d``, whose conclusion sits under ``depth``
    binders, by JSON key: terms as surface text, step counts and
    strategies as their JSON values.  ``memo`` is the printing table of
    the enclosing top-level call."""
    out = {}
    witnesses = iter(calc.rules[d.rule].witnesses)
    for w in witnesses:
        v = getattr(d, w.field)
        if v is None:
            continue
        if isinstance(w.category, Literal):
            out[w.key] = w.category.dump(v)
            continue
        out[w.key] = _text(v, depth, memo)
        if w.binds:
            body = next(witnesses)
            inner = _under(depth, ANNOTATES[w.category])
            out[body.key] = _text(getattr(d, body.field), inner, memo)
    return out


def _derivation(calc, d, out: list[str], memo: dict) -> None:
    rule = calc.rules[d.rule]
    out.append(f"({rule.tag} ")
    depth = _sequent(calc, d.conclusion, out, memo)
    texts = witness_texts(calc, d, depth, memo)
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
        _derivation(calc, p, out, memo)
    out.append(")")


def print_sequent(calc, seq) -> str:
    out: list[str] = []
    _sequent(calc, seq, out, {})
    return "".join(out)


def print_derivation(calc, d) -> str:
    out: list[str] = []
    _derivation(calc, d, out, {})
    return "".join(out)


def print_hol_sequent(seq) -> str:
    return print_sequent(HOL, seq)


def print_eff_sequent(seq) -> str:
    return print_sequent(EFF, seq)


def print_hol_derivation(d) -> str:
    return print_derivation(HOL, d)


def print_eff_derivation(d) -> str:
    return print_derivation(EFF, d)
