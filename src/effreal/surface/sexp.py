"""A small s-expression reader with source positions.

Atoms are bare symbols; integers are recognized where the grammar expects
them.  Comments run from ';' to end of line.
"""

from __future__ import annotations

import re

from ..errors import SurfaceSyntaxError


class Atom:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int = 0, col: int = 0):
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return self.text


class SList:
    __slots__ = ("items", "line", "col")

    def __init__(self, items: tuple, line: int = 0, col: int = 0):
        self.items = items
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return "(" + " ".join(repr(i) for i in self.items) + ")"

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


# Every character of a text falls in exactly one token: a run of blanks,
# a comment up to its line break, a parenthesis, or an atom, which runs up
# to the next blank, parenthesis or ';'.
_TOKENS = re.compile(r"[ \t\r\n]+|;[^\n]*|[()]|[^ \t\r\n();]+").findall


def parse_all(text: str) -> list:
    """Parse every top-level form in ``text``."""
    out: list = []
    items = out
    enclosing: list[tuple[list, int, int]] = []  # outer item lists, and where each '(' is
    line, line_start, pos = 1, 0, 0
    for tok in _TOKENS(text):
        if tok == "(":
            enclosing.append((items, line, pos - line_start + 1))
            items = []
        elif tok == ")":
            if not enclosing:
                raise SurfaceSyntaxError("unbalanced ')'", line, pos - line_start + 1)
            outer, l, c = enclosing.pop()
            outer.append(SList(tuple(items), l, c))
            items = outer
        elif tok[0] in " \t\r\n":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = pos + tok.rindex("\n") + 1
        elif tok[0] != ";":
            items.append(Atom(tok, line, pos - line_start + 1))
        pos += len(tok)
    if enclosing:
        _, l, c = enclosing[-1]
        raise SurfaceSyntaxError("unclosed '('", l, c)
    return out


def expect_list(node, what: str) -> SList:
    if not isinstance(node, SList):
        raise SurfaceSyntaxError(
            f"expected {what}, got atom {node.text!r}", node.line, node.col
        )
    return node


def expect_atom(node, what: str) -> Atom:
    if not isinstance(node, Atom):
        raise SurfaceSyntaxError(f"expected {what}, got a list", node.line, node.col)
    return node


def expect_args(node: SList, n: int) -> SList:
    """``node``, if it has exactly ``n`` arguments after its head."""
    if len(node.items) != n + 1:
        raise SurfaceSyntaxError(
            f"{head(node)} takes {n} argument(s), got {len(node.items) - 1}", node.line, node.col
        )
    return node


def head(node: SList) -> str:
    items = node.items
    if not items or not isinstance(items[0], Atom):
        raise SurfaceSyntaxError("expected a keyword form", node.line, node.col)
    return items[0].text
