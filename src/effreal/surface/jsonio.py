"""Versioned JSON interchange for derivations.

Terms are embedded as canonical surface-syntax strings, so the JSON tree
mirrors the derivation structure ({rule, conclusion, witnesses, premises})
while staying human-readable.  The witnesses of each rule are those of
its text form (``grammar``), keyed by name.  Writing a document prints
all its strings in one pass with one text table (``printer``): a subterm
is printed once per ``(node, depths it can read)`` key across all the
derivation's conclusions and witnesses, and a later reach copies a slice
of the conclusion or witness string it was first printed in, which the
document holds anyway.  Loading validates the schema version, rejects
unknown rule tags, and re-elaborates every embedded term.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from ..errors import SurfaceSyntaxError
from ..walk import walk
from . import elaborate as el
from . import printer as pr
from .grammar import ANNOTATES, EFF, HOL, Literal, binder_name
from .sexp import parse_all

SCHEMA = "effreal/derivation/1"


def _to_json(calc, d) -> dict:
    return {"schema": SCHEMA, "calculus": calc.name, "derivation": walk(_node, calc, d, {})}


def _node(calc, d, table: dict):
    """The JSON tree of ``d``, its nodes made in pre-order; a walk (see
    ``walk``)."""
    conclusion, depth = pr._sequent(calc, d.conclusion, table)
    node = {
        "rule": d.rule,
        "conclusion": conclusion,
        "witnesses": pr.witness_texts(calc, d, depth, table),
        "premises": [],
    }
    for p in d.premises:
        node["premises"].append((yield calc, p, table))
    return node


def hol_to_json(d) -> dict:
    return _to_json(HOL, d)


def eff_to_json(d) -> dict:
    return _to_json(EFF, d)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SurfaceSyntaxError(f"{what}: not a JSON object", 1, 1)
    return value


def _one(text, what: str):
    if not isinstance(text, str):
        raise SurfaceSyntaxError(f"{what}: not a string", 1, 1)
    forms = parse_all(text)
    if len(forms) != 1:
        raise SurfaceSyntaxError("expected exactly one form", 1, 1)
    return forms[0]


def _from_json(calc, data: dict, doc):
    data = _object(data, "derivation document")
    if data.get("schema") != SCHEMA:
        raise SurfaceSyntaxError(f"unknown schema {data.get('schema')!r}", 1, 1)
    if data.get("calculus") != calc.name:
        raise SurfaceSyntaxError(f"not a {calc.name} derivation", 1, 1)
    return walk(_from, calc, data.get("derivation"), doc or el.SurfaceDoc())


def _from(calc, node, doc):
    """The derivation of the JSON tree ``node``, its nodes elaborated in
    pre-order, so the first bad node in document order is the one
    reported; a walk (see ``walk``)."""
    rule, seq, found, premises = _elab_node(calc, node, doc)
    built = []
    for p in premises:
        built.append((yield calc, p, doc))
    return calc.derivation(rule, seq, tuple(built), **found)


def _elab_node(calc, node, doc):
    """The rule, conclusion and witnesses of one JSON node, elaborated,
    and its premises as JSON."""
    node = _object(node, "derivation node")
    rule = node.get("rule")
    if not isinstance(rule, str) or rule not in calc.rules:
        raise SurfaceSyntaxError(f"unknown rule tag {rule!r}", 1, 1)
    seq, env = el.elab_sequent(doc, calc, _one(node.get("conclusion"), f"{rule} conclusion"))
    given = _object(node.get("witnesses", {}), f"{rule} witnesses")
    found = {}
    witnesses = iter(calc.rules[rule].witnesses)
    for w in witnesses:
        if w.key not in given:
            raise SurfaceSyntaxError(f"{rule} node is missing its {w.key!r} witness", 1, 1)
        if isinstance(w.category, Literal):
            found[w.field] = w.category.read(given[w.key], text=False)
            continue
        found[w.field] = el.elaborate(doc, w.category, env, _one(given[w.key], w.key))
        if w.binds:
            # the body names the bound variable as the printer does
            body = next(witnesses)
            if body.key not in given:
                raise SurfaceSyntaxError(f"{rule} node is missing its {body.key!r} witness", 1, 1)
            ns = ANNOTATES[w.category]
            names = env.slots[ns.slot]
            names.push(binder_name(ns, len(names.names)))
            found[body.field] = el.elaborate(
                doc, body.category, env, _one(given[body.key], body.key)
            )
            names.pop()
    premises = node.get("premises", [])
    if not isinstance(premises, list):
        raise SurfaceSyntaxError(f"{rule} premises: not a JSON list", 1, 1)
    return rule, seq, found, premises


def hol_from_json(data: dict, doc: el.SurfaceDoc | None = None):
    return _from_json(HOL, data, doc)


def eff_from_json(data: dict, doc: el.SurfaceDoc | None = None):
    return _from_json(EFF, data, doc)


# ``float.__repr__`` of the values JSON has no literal for, as ``json`` writes them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_END = object()


def dumps(data) -> str:
    """The text of ``json.dumps(data, indent=2, sort_keys=True)``, byte for
    byte, written from an explicit stack: nesting depth is bounded by
    memory, not by the recursion limit.  ``data`` is a tree; a container
    that holds itself is never finished."""
    out: list[str] = []
    emit = out.append
    margins = ["\n"]  # margins[k]: a line break and k levels of indentation
    frames: list = []  # open containers: (rest of their items, keyed, separator, closing text)
    value = data
    while True:
        item = _END
        if isinstance(value, str):
            emit(encode_basestring_ascii(value))
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif isinstance(value, int):
            emit(int.__repr__(value))
        elif isinstance(value, float):
            text = float.__repr__(value)
            emit(_NONFINITE.get(text, text))
        else:
            if isinstance(value, (list, tuple)):
                keyed, brackets, items = False, "[]", value
            elif isinstance(value, dict):
                keyed, brackets, items = True, "{}", sorted(value.items())
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            if items:
                depth = len(frames) + 1
                if depth == len(margins):
                    margins.append(margins[-1] + "  ")
                rest = iter(items)
                item = next(rest)
                emit(brackets[0] + margins[depth])
                frames.append((rest, keyed, "," + margins[depth], margins[depth - 1] + brackets[1]))
            else:
                emit(brackets)
        if item is _END:
            while frames:
                rest, _, separator, closing = frames[-1]
                item = next(rest, _END)
                if item is not _END:
                    emit(separator)
                    break
                frames.pop()
                emit(closing)
            else:
                return "".join(out)
        if frames[-1][1]:
            key, value = item
            emit(encode_basestring_ascii(key) + ": ")
        else:
            value = item
