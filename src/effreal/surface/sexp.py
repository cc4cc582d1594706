"""A small s-expression reader with source positions.

Atoms are bare symbols; integers are recognized where the grammar expects
them.  Comments run from ';' to end of line.  ``read_forms`` yields each
top-level form as soon as it closes, so a caller can drop one before the
next is read.  A form keeps its offset in the text, and its line and
column are counted from the text only when read.
"""

from __future__ import annotations

import re

from ..errors import SurfaceSyntaxError


def _line_col(src: str, pos: int) -> tuple[int, int]:
    start = src.rfind("\n", 0, pos) + 1
    return src.count("\n", 0, start) + 1, pos - start + 1


class _Form:
    """A node read from the text ``src``, at offset ``pos``."""

    __slots__ = ("pos", "src")

    @property
    def line(self) -> int:
        return _line_col(self.src, self.pos)[0]

    @property
    def col(self) -> int:
        return _line_col(self.src, self.pos)[1]


class Atom(_Form):
    __slots__ = ("text",)

    def __init__(self, text: str, pos: int, src: str):
        self.text = text
        self.pos = pos
        self.src = src

    def __repr__(self) -> str:
        return self.text


class SList(_Form):
    __slots__ = ("items",)

    def __init__(self, items: tuple, pos: int, src: str):
        self.items = items
        self.pos = pos
        self.src = src

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
# The reader splits this many characters into tokens at a time, so it
# holds the tokens of one slice of the text, not of all of it.
_SLICE = 1 << 14


def read_forms(text: str):
    """Yield each top-level form of ``text`` as soon as it closes; atoms
    of the same text share one string."""
    shared = {}.setdefault
    items: list = []
    enclosing: list[tuple[list, int]] = []  # outer item lists, and where each '(' is
    pos, size = 0, _SLICE
    while pos < len(text):
        tokens = _TOKENS(text, pos, pos + size)
        if pos + size < len(text):
            tokens.pop()  # it may run on past the slice: the next slice reads it again
            if not tokens:  # one token fills the slice
                size *= 2
                continue
        size = _SLICE
        for tok in tokens:
            at, pos = pos, pos + len(tok)
            if tok == "(":
                enclosing.append((items, at))
                items = []
                continue
            if tok == ")":
                if not enclosing:
                    raise SurfaceSyntaxError("unbalanced ')'", *_line_col(text, at))
                outer, start = enclosing.pop()
                node = SList(tuple(items), start, text)
                items = outer
            elif tok[0] in " \t\r\n;":
                continue
            else:
                node = Atom(shared(tok, tok), at, text)
            if enclosing:
                items.append(node)
            else:
                yield node
    if enclosing:
        raise SurfaceSyntaxError("unclosed '('", *_line_col(text, enclosing[-1][1]))


def parse_all(text: str) -> list:
    """Every top-level form in ``text``."""
    return list(read_forms(text))


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
