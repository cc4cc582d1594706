"""A small s-expression reader with source positions.

Atoms are bare symbols; integers are recognized where the grammar expects
them.  Comments run from ';' to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SurfaceSyntaxError


@dataclass(frozen=True)
class Atom:
    text: str
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return self.text


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return "(" + " ".join(repr(i) for i in self.items) + ")"

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


def tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield (text[start:i], line, start_col)


def parse_all(text: str) -> list:
    """Parse every top-level form in ``text``."""
    stack: list[list] = []
    positions: list[tuple[int, int]] = []
    out: list = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            stack.append([])
            positions.append((line, col))
        elif tok == ")":
            if not stack:
                raise SurfaceSyntaxError("unbalanced ')'", line, col)
            items = stack.pop()
            l, c = positions.pop()
            node = SList(tuple(items), l, c)
            if stack:
                stack[-1].append(node)
            else:
                out.append(node)
        else:
            node = Atom(tok, line, col)
            if stack:
                stack[-1].append(node)
            else:
                out.append(node)
    if stack:
        l, c = positions[-1]
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
