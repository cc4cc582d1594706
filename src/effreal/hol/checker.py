"""Well-formedness and derivation checking for the higher-order logic.

Sequents are ``S ⊢ Ψ ⇛ ψ``.  Sort contexts are tuples whose last entry is
the innermost binder (de Bruijn index 0).  Derivations are explicit trees:
every node carries its claimed conclusion, so checking never searches.
Well-formedness of the full sequent is enforced once at the root; each node
then re-derives its conclusion from the premises' claims plus explicit
witnesses and compares structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._astnode import shift, subst
from ..errors import (
    IllFormedBody,
    IllTyped,
    KernelError,
    RuleMismatch,
    SortMismatch,
    UnboundVariable,
)
from .syntax import (
    Compr,
    ComprBase,
    Forall,
    HolProp,
    HolTerm,
    Imp,
    Mem,
    MemBase,
    Pred,
    Sort,
    STAR,
    TERM,
    Var,
)

SortContext = tuple[Sort, ...]


def sort_of(ctx: SortContext, t: HolTerm) -> Sort:
    """Compute the unique sort of ``t`` in ``ctx``."""
    match t:
        case Var(k):
            if 0 <= k < len(ctx):
                return ctx[len(ctx) - 1 - k]
            raise UnboundVariable(f"variable {k} unbound in context of size {len(ctx)}")
        case Compr(s, body):
            try:
                prop_wf(ctx + (s,), body)
            except SortMismatch as e:
                raise IllFormedBody(f"comprehension body ill-formed: {e.message}")
            return Pred(s)
        case ComprBase(body):
            try:
                prop_wf(ctx, body)
            except SortMismatch as e:
                raise IllFormedBody(f"base comprehension body ill-formed: {e.message}")
            return STAR
    raise SortMismatch(f"unexpected term {t!r}")


def prop_wf(ctx: SortContext, p: HolProp) -> None:
    """Check that ``p`` is a well-formed proposition in ``ctx``."""
    match p:
        case MemBase(t):
            s = sort_of(ctx, t)
            if s != STAR:
                raise SortMismatch(f"base membership needs sort *, got {s!r}")
        case Mem(e, st):
            se = sort_of(ctx, e)
            ss = sort_of(ctx, st)
            if ss != Pred(se):
                raise SortMismatch(f"membership needs set sort (P {se!r}), got {ss!r}")
        case Imp(a, b):
            prop_wf(ctx, a)
            prop_wf(ctx, b)
        case Forall(s, body):
            prop_wf(ctx + (s,), body)
        case _:
            raise SortMismatch(f"unexpected proposition {p!r}")


@dataclass(frozen=True, slots=True)
class Sequent:
    ctx: SortContext
    hyps: tuple[HolProp, ...]
    goal: HolProp


def sequent_wf(seq: Sequent) -> None:
    for h in seq.hyps:
        prop_wf(seq.ctx, h)
    prop_wf(seq.ctx, seq.goal)


# Each rule's premises, one entry each: SAME if the premise shares the
# conclusion's context and hypotheses, OPENED if it is checked in the frame
# ``premise_frame`` opens for it.
SAME, OPENED = True, False
HOL_PREMISES = {
    "Id": (), "ImpI": (OPENED,), "ImpE": (SAME, SAME), "UniI": (OPENED,), "UniE": (SAME,),
    "MemI": (SAME,), "MemE": (SAME,), "Mem0I": (SAME,), "Mem0E": (SAME,),
}


@dataclass(frozen=True, eq=False, repr=False)
class HolDerivation:
    rule: str
    conclusion: Sequent
    premises: tuple["HolDerivation", ...] = ()
    # UniE carries the instantiating term; other rules need no witness
    # because every premise node carries its own claimed conclusion.
    witness: HolTerm | None = field(default=None)


def premise_frame(rule: str, seq: Sequent) -> tuple[SortContext, tuple[HolProp, ...]]:
    """The context and hypotheses, in order, of every premise of ``rule``
    concluding ``seq``: ImpI assumes the antecedent last, UniI opens the
    universal's binder and shifts the hypotheses past it, and every other
    rule keeps ``seq``'s own.  The checker compares the hypotheses as a
    set; the soundness replay reads their order."""
    match rule:
        case "ImpI":
            if not isinstance(seq.goal, Imp):
                raise RuleMismatch("ImpI: goal is not an implication")
            return seq.ctx, seq.hyps + (seq.goal.lhs,)
        case "UniI":
            if not isinstance(seq.goal, Forall):
                raise RuleMismatch("UniI: goal is not a universal")
            return seq.ctx + (seq.goal.binder_sort,), tuple(shift(h, TERM) for h in seq.hyps)
    return seq.ctx, seq.hyps


def check(d: HolDerivation) -> Sequent:
    """Verify ``d`` node by node, in pre-order from an explicit stack, and
    return its conclusion; a rejection is located here, at the loop's node."""
    stack, path = [(d, ())], ()
    try:
        sequent_wf(d.conclusion)
        while stack:
            node, path = stack.pop()
            _check(node)
            stack.extend((node.premises[i], path + (i,)) for i in reversed(range(len(node.premises))))
    except KernelError as exc:
        raise exc.at(path)
    return d.conclusion


def _check(d: HolDerivation) -> None:
    """Check the one rule application at ``d`` against its premises' claims."""
    c = d.conclusion
    frames = HOL_PREMISES.get(d.rule) if isinstance(d.rule, str) else None
    if frames is None:
        raise RuleMismatch(f"unknown rule {d.rule!r}")
    if len(d.premises) != len(frames):
        raise RuleMismatch(f"{d.rule} expects {len(frames)} premise(s), got {len(d.premises)}")
    ctx, hyps = premise_frame(d.rule, c)
    for same, p in zip(frames, d.premises):
        whose = "conclusion" if same else "the opened frame"
        if p.conclusion.ctx != ctx:
            raise RuleMismatch(f"{d.rule}: premise context differs from {whose}")
        if set(p.conclusion.hyps) != set(hyps):
            raise RuleMismatch(f"{d.rule}: premise hypotheses differ from {whose}")
    match d.rule:
        case "Id":
            if not any(h == c.goal for h in c.hyps):
                raise RuleMismatch("Id: goal is not among the hypotheses")

        case "ImpI":
            if d.premises[0].conclusion.goal != c.goal.rhs:
                raise RuleMismatch("ImpI: premise does not match discharged form")

        case "ImpE":
            fn, arg = d.premises
            g = fn.conclusion.goal
            if not isinstance(g, Imp):
                raise RuleMismatch("ImpE: first premise is not an implication")
            if g.lhs != arg.conclusion.goal:
                raise RuleMismatch("ImpE: argument premise does not match antecedent")
            if g.rhs != c.goal:
                raise RuleMismatch("ImpE: conclusion does not match consequent")

        case "UniI":
            if d.premises[0].conclusion.goal != c.goal.body:
                raise RuleMismatch("UniI: premise goal is not the universal body")

        case "UniE":
            if d.witness is None:
                raise RuleMismatch("UniE: missing instantiation witness")
            g = d.premises[0].conclusion.goal
            if not isinstance(g, Forall):
                raise RuleMismatch("UniE: premise is not a universal")
            s = sort_of(c.ctx, d.witness)
            if s != g.binder_sort:
                raise IllTyped(f"UniE: witness has sort {s!r}, expected {g.binder_sort!r}")
            if subst(g.body, TERM, 0, d.witness) != c.goal:
                raise RuleMismatch("UniE: conclusion is not the instantiated body")

        case "MemI":
            g = c.goal
            if not (isinstance(g, Mem) and isinstance(g.set, Compr)):
                raise RuleMismatch("MemI: goal is not membership in a comprehension")
            s = sort_of(c.ctx, g.element)
            if s != g.set.binder_sort:
                raise IllTyped(f"MemI: element has sort {s!r}, expected {g.set.binder_sort!r}")
            if d.premises[0].conclusion.goal != subst(g.set.body, TERM, 0, g.element):
                raise RuleMismatch("MemI: premise is not the substituted body")

        case "MemE":
            g = d.premises[0].conclusion.goal
            if not (isinstance(g, Mem) and isinstance(g.set, Compr)):
                raise RuleMismatch("MemE: premise is not membership in a comprehension")
            if c.goal != subst(g.set.body, TERM, 0, g.element):
                raise RuleMismatch("MemE: conclusion is not the substituted body")

        case "Mem0I":
            g = c.goal
            if not (isinstance(g, MemBase) and isinstance(g.term, ComprBase)):
                raise RuleMismatch("Mem0I: goal is not base membership of a base comprehension")
            if d.premises[0].conclusion.goal != g.term.body:
                raise RuleMismatch("Mem0I: premise is not the comprehension body")

        case "Mem0E":
            g = d.premises[0].conclusion.goal
            if not (isinstance(g, MemBase) and isinstance(g.term, ComprBase)):
                raise RuleMismatch("Mem0E: premise is not base membership of a base comprehension")
            if c.goal != g.term.body:
                raise RuleMismatch("Mem0E: conclusion is not the comprehension body")
