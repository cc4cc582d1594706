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

``reducts`` is the one loop that takes successive steps, in both calculi:
it yields a term and then each term it steps to.  ``run`` bounds it by a
fuel of exactly that many steps and raises ``FuelExhausted`` past it;
``multi_step``, ``count_steps`` and ``frame.untyped_normalize`` read it.
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


def reducts(x: Term, root, strategies: dict, strategy):
    """``x``, then each term it steps to under ``strategy`` (as for
    ``contextual_step``), ending at a normal form."""
    while x is not None:
        yield x
        x = contextual_step(x, root, strategies, strategy)


def run(x: Term, root, strategies: dict, strategy, fuel: int) -> tuple[Term, int]:
    """The normal form of ``x`` and the steps taken to it; ``FuelExhausted``
    if ``fuel`` steps reach none."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    for steps, x in enumerate(reducts(x, root, strategies, strategy)):
        if steps > fuel:
            name = getattr(strategy, "value", strategy)
            raise FuelExhausted(f"no normal form within {fuel} steps under {name}")
    return x, steps


def step(p: EffProgram, strategy: Strategy = Strategy.BASE) -> EffProgram | None:
    return contextual_step(p, root_step, STRATEGIES, strategy)


def multi_step(
    p: EffProgram, strategy: Strategy = Strategy.BASE, fuel: int = DEFAULT_FUEL
) -> tuple[EffProgram, int]:
    """The normal form of ``p`` under ``strategy``, a ``Strategy`` or its
    name, and the steps taken to it."""
    return run(p, root_step, STRATEGIES, strategy, fuel)


def count_steps(
    p1: EffProgram, p2: EffProgram, strategy: Strategy, max_steps: int
) -> int | None:
    """The number of steps from p1 to p2, or None if p2 is not reached
    within ``max_steps`` steps."""
    path = zip(range(max_steps + 1), reducts(p1, root_step, STRATEGIES, strategy))
    return next((n for n, x in path if x == p2), None)
