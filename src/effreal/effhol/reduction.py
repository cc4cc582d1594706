"""One-step reduction and bounded multi-step reduction.

A strategy is the three axioms of ``root_step`` plus a grammar of
evaluation contexts (Felleisen and Hieb, 1992), and the grammar is data:
``STRATEGIES`` gives each strategy whether beta is call-by-value and, for
each node class, the fields that are holes, in search order.

  BASE  no contexts: the axioms at the root only, with the call-by-value
        restriction on term application.
  CBN   call-by-name: beta fires on arbitrary arguments, in the head of
        applications and under lambda (contexts  [] | [] tau | [] p |
        \\x:tau.[]).
  FULL  leftmost-outermost everywhere with unrestricted beta: every
        program field is a hole, and an argument or a bind's rest is
        searched only once the part before it is normal; the executable
        semantics of the identity instance and the normalizer used by lift
        checks.

``contextual_step`` runs such a table for both program calculi (the
untyped one in ``frame``).  It searches the holes from an explicit stack,
so no step recurses over the depth of a term.  At most one step applies
per strategy; ``step`` returns None on normal forms.
"""

from __future__ import annotations

from enum import Enum

from ..errors import FuelExhausted
from .._astnode import Term, subst
from .syntax import (
    PROG,
    TYPE,
    Abs,
    App,
    Bind,
    EffProgram,
    Ret,
    TyAbs,
    TyApp,
    is_value,
)


# The reduction fuel wherever the caller names none: normalization,
# anti-reduction replay under an instance, and the CLI.
DEFAULT_FUEL = 10_000


class Strategy(str, Enum):
    BASE = "base"
    CBN = "cbn"
    FULL = "full"


def root_step(p: EffProgram, cbv: bool) -> EffProgram | None:
    """Apply one reduction axiom at the root, or return None."""
    match p:
        case Bind(_, Ret(inner), rest):
            return subst(rest, PROG, 0, inner)
        case TyApp(TyAbs(_, body), arg):
            return subst(body, TYPE, 0, arg)
        case App(Abs(_, body), arg):
            if not cbv or is_value(arg):
                return subst(body, PROG, 0, arg)
            return None
    return None


STRATEGIES = {
    Strategy.BASE: (True, {}),
    Strategy.CBN: (False, {TyApp: ("fn",), App: ("fn",), Abs: ("body",)}),
    Strategy.FULL: (
        False,
        {
            TyAbs: ("body",),
            Abs: ("body",),
            TyApp: ("fn",),
            App: ("fn", "arg"),
            Ret: ("inner",),
            Bind: ("first", "rest"),
        },
    ),
}


def contextual_step(x: Term, root, strategies: dict, strategy) -> Term | None:
    """One step of ``strategy``, an entry of ``strategies``, under the
    root axioms ``root(·, cbv)``; None on a normal form.

    The redex is the first node, depth-first and leftmost-outermost, that
    lies in a hole and on which an axiom fires; it is found from an
    explicit stack and the path above it is rebuilt through the node
    constructors, so no Python frame is spent per level.
    """
    try:
        cbv, holes = strategies[strategy]
    except (KeyError, TypeError):
        raise ValueError(f"unknown strategy {strategy!r}") from None
    stack, path = [], None
    while True:
        r = root(x, cbv)
        if r is not None:
            while path is not None:
                x, hole, path = path
                r = type(x)(*[r if n == hole else getattr(x, n) for n in x._names])
            return r
        for hole in reversed(holes.get(type(x), ())):
            stack.append((getattr(x, hole), (x, hole, path)))
        if not stack:
            return None
        x, path = stack.pop()


def step(p: EffProgram, strategy: Strategy = Strategy.BASE) -> EffProgram | None:
    return contextual_step(p, root_step, STRATEGIES, strategy)


def multi_step(
    p: EffProgram, strategy: Strategy = Strategy.BASE, fuel: int = DEFAULT_FUEL
) -> tuple[EffProgram, int]:
    """Iterate ``step`` until normal form; returns (result, steps taken)."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    try:
        strategy = Strategy(strategy)
    except ValueError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    steps = 0
    cur = p
    while True:
        nxt = step(cur, strategy)
        if nxt is None:
            return cur, steps
        if steps >= fuel:
            raise FuelExhausted(
                f"no normal form within {fuel} steps under {strategy.value}",
                partial=cur,
                steps=steps,
            )
        cur = nxt
        steps += 1


def count_steps(
    p1: EffProgram, p2: EffProgram, strategy: Strategy, max_steps: int
) -> int | None:
    """The number of steps from p1 to p2, or None if p2 is not reached
    within ``max_steps`` steps."""
    cur = p1
    for n in range(max_steps + 1):
        if cur == p2:
            return n
        cur = step(cur, strategy)
        if cur is None:
            return None
    return None
