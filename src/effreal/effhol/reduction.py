"""One-step beta reduction and bounded multi-step reduction.

Three strategies:

  BASE  the minimal relation: the three axioms, applied at the root only,
        with the call-by-value restriction on term application.
  CBN   call-by-name: term application fires on arbitrary arguments, and
        reduction may happen in the head of applications and under
        lambda (contexts  [] | [] tau | [] p | \\x:tau.[]).
  FULL  leftmost-outermost reduction everywhere with unrestricted beta;
        the executable semantics of the identity instance and the
        normalizer used by lift checks.

At most one step applies per strategy; ``step`` returns None on normal
forms.
"""

from __future__ import annotations

from enum import Enum

from ..errors import FuelExhausted
from .._astnode import subst
from .syntax import (
    PROG,
    TYPE,
    Abs,
    App,
    Bind,
    EffProgram,
    PVar,
    Ret,
    TyAbs,
    TyApp,
    is_value,
)


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


def step(p: EffProgram, strategy: Strategy = Strategy.BASE) -> EffProgram | None:
    if strategy == Strategy.BASE:
        return root_step(p, cbv=True)
    if strategy == Strategy.CBN:
        return _step_cbn(p)
    if strategy == Strategy.FULL:
        return _step_full(p)
    raise ValueError(f"unknown strategy {strategy!r}")


def _step_cbn(p: EffProgram) -> EffProgram | None:
    r = root_step(p, cbv=False)
    if r is not None:
        return r
    match p:
        case TyApp(fn, arg):
            r = _step_cbn(fn)
            return None if r is None else TyApp(r, arg)
        case App(fn, arg):
            r = _step_cbn(fn)
            return None if r is None else App(r, arg)
        case Abs(ty, body):
            r = _step_cbn(body)
            return None if r is None else Abs(ty, r)
    return None


def _step_full(p: EffProgram) -> EffProgram | None:
    r = root_step(p, cbv=False)
    if r is not None:
        return r
    match p:
        case TyAbs(kind, body):
            r = _step_full(body)
            return None if r is None else TyAbs(kind, r)
        case Abs(ty, body):
            r = _step_full(body)
            return None if r is None else Abs(ty, r)
        case TyApp(fn, arg):
            r = _step_full(fn)
            return None if r is None else TyApp(r, arg)
        case App(fn, arg):
            r = _step_full(fn)
            if r is not None:
                return App(r, arg)
            r = _step_full(arg)
            return None if r is None else App(fn, r)
        case Ret(inner):
            r = _step_full(inner)
            return None if r is None else Ret(r)
        case Bind(ty, first, rest):
            r = _step_full(first)
            if r is not None:
                return Bind(ty, r, rest)
            r = _step_full(rest)
            return None if r is None else Bind(ty, first, r)
        case PVar(_):
            return None
    return None


def multi_step(
    p: EffProgram, strategy: Strategy = Strategy.BASE, fuel: int = 10_000
) -> tuple[EffProgram, int]:
    """Iterate ``step`` until normal form; returns (result, steps taken)."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
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
